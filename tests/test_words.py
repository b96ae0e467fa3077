from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freemarkov.errors import CapabilityError
from freemarkov.words import (BALL_LIMIT, Domain, GroupSpec, IDENTITY, Word,
                              _ball_domain, ball, ball_domain, ball_size, check_radius,
                              induced_left_edges, parse_word, past, reduce_word, tree_hull)

from oracles import oracle_ball, oracle_edges, oracle_hull, oracle_left_connected

G2 = GroupSpec(2, "group")
S2 = GroupSpec(2, "semigroup")
ALL_SPECS = [GroupSpec(r, kind) for r in (1, 2, 3) for kind in ("group", "semigroup")]


def w(text, spec=G2):
    return parse_word(text, spec)


class TestReduce:
    def test_full_cancellation(self):
        assert reduce_word([1, -1], G2) == IDENTITY

    def test_inner_cancellation(self):
        assert reduce_word([1, 2, -2, 1], G2) == Word((1, 1))

    def test_semigroup_verbatim(self):
        assert reduce_word([1, 2], S2) == Word((1, 2))

    def test_semigroup_rejects_inverses(self):
        with pytest.raises(ValueError, match="inverse letter"):
            reduce_word([1, -2], S2)

    def test_letter_outside_alphabet(self):
        with pytest.raises(ValueError, match="outside alphabet"):
            reduce_word([3], G2)

    def test_word_constructor_rejects_unreduced(self):
        with pytest.raises(ValueError, match="not reduced"):
            Word((1, -1))
        # letter 0 would print as "Z", which parses as the inverse of generator 25
        with pytest.raises(ValueError, match=r"^letters \(2, 0\) hold 0, which names no generator$"):
            Word((2, 0))
        # letters are read as a tuple of ints
        with pytest.raises(TypeError, match=r"^letter must be an integer, got 1\.5$"):
            Word((1.5,))
        word = Word([1, 2])
        assert word == Word((1, 2)) and hash(word) == hash(Word((1, 2)))

    @settings(max_examples=100)
    @given(st.lists(st.sampled_from([1, -1, 2, -2]), max_size=12))
    def test_idempotent(self, letters):
        once = reduce_word(letters, G2)
        assert reduce_word(once.letters, G2) == once

    @settings(max_examples=100)
    @given(st.lists(st.sampled_from([1, -1, 2, -2]), max_size=12))
    def test_word_times_inverse_is_identity(self, letters):
        word = reduce_word(letters, G2)
        assert word * Word(tuple(-l for l in reversed(word.letters))) == IDENTITY


class TestBall:
    def test_radius_zero(self):
        assert ball(G2, 0) == [IDENTITY]

    def test_radius_one_group(self):
        b = ball(G2, 1)
        assert len(b) == 5
        assert b[0] == IDENTITY
        assert [str(x) for x in b] == ["e", "a", "A", "b", "B"]

    def test_sizes(self):
        assert len(ball(G2, 2)) == 17
        assert len(ball(S2, 2)) == 7

    @pytest.mark.parametrize("spec", [G2, S2, GroupSpec(3), GroupSpec(3, "semigroup"),
                                      GroupSpec(1), GroupSpec(1, "semigroup")])
    def test_closed_form_matches_enumeration(self, spec):
        for n in range(5):
            assert len(ball(spec, n)) == ball_size(spec, n)

    @pytest.mark.parametrize("spec", [G2, S2, GroupSpec(3)])
    def test_matches_independent_enumeration(self, spec):
        got = [x.letters for x in ball(spec, 3)]
        assert got == oracle_ball(spec.rank, 3, spec.is_group)

    def test_shortlex_sorted(self):
        for spec in ALL_SPECS:
            for n in range(5):
                b = ball(spec, n)
                assert b == sorted(b)
                assert len(set(b)) == len(b)

    def test_fresh_list(self):
        b = ball(G2, 1)
        b.append(IDENTITY)
        assert len(ball(G2, 1)) == 5

    def test_negative_radius(self):
        with pytest.raises(ValueError):
            ball(G2, -1)


def _label_counts(domain, spec):
    labels = Counter(label for _, _, label in oracle_edges([x.letters for x in domain]))
    return [labels[s] for s in spec.generators()]


class TestGeometry:
    @pytest.mark.parametrize("spec", ALL_SPECS, ids=str)
    def test_arrays_match_word_ball(self, spec):
        gens = spec.generators()
        for n in range(6):
            dom = ball_domain(spec, n)
            words = oracle_ball(spec.rank, n, spec.is_group)
            index = {x: i for i, x in enumerate(words)}
            assert dom.parent.size == len(words) == ball_size(spec, n)
            assert dom.parent[0] == dom.letter[0] == -1
            for i, x in enumerate(words[1:], start=1):
                assert dom.parent[i] == index[x[1:]]
                assert gens[dom.letter[i]] == x[0]

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=str)
    def test_domains_match_word_hull_and_edges(self, spec):
        for n in range(6):
            b = ball(spec, n)
            members = set(b)
            dom = ball_domain(spec, n)
            assert len(dom) == len(b)
            assert list(dom.label_counts) == _label_counts(b, spec)
            for s in spec.generators():
                pair = ball_domain(spec, n, s)
                words = list(pair)
                step = Word((s,))
                union = members | {x * step for x in b}
                assert words == sorted(union, key=Word.shortlex_key)
                assert len(pair) == len(words)
                # the ball is suffix-closed, so the added words decide the hull
                added = oracle_hull([x.letters for x in words[len(b):]])
                assert {Word(x) for x in added} <= union
                assert list(pair.label_counts) == _label_counts(words, spec)

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=str)
    def test_trees_match_word_parents(self, spec):
        gens = spec.generators()
        for n in range(5):
            b = [Word(x) for x in oracle_ball(spec.rank, n, spec.is_group)]
            for s in (None,) + gens:
                union = set(b) if s is None else set(b) | {x * Word((s,)) for x in b}
                words = sorted(union, key=Word.shortlex_key)
                index = {x: i for i, x in enumerate(words)}
                dom = ball_domain(spec, n, s)
                assert dom.parent.tolist() == [-1] + [index[Word(x.letters[1:])]
                                                      for x in words[1:]]
                assert dom.letter.tolist() == [-1] + [gens.index(x.letters[0])
                                                      for x in words[1:]]

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=str)
    def test_pair_translates_match_word_products(self, spec):
        # words ending in s^-1 translate back into the ball, the rest outward
        for n in range(5):
            b = ball(spec, n)
            for s in spec.generators():
                pair = ball_domain(spec, n, s)
                pos = {x: a for a, x in enumerate(pair)}
                assert pair.translates.tolist() == [pos[x * Word((s,))] for x in b]
                assert pair.translates.dtype == np.int64
                assert not pair.translates.flags.writeable
        with pytest.raises(ValueError, match="only a pair domain"):
            ball_domain(spec, 1).translates

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=str)
    def test_of_matches_ball_domains(self, spec):
        # the one constructor of word sets against the geometry-built domains
        for n in range(5):
            for s in (None,) + spec.generators():
                dom = ball_domain(spec, n, s)
                of = Domain.of(list(dom), spec)
                assert of.keep is None and dom.keep is None
                assert of.parent.tolist() == dom.parent.tolist()
                assert of.letter.tolist() == dom.letter.tolist()
                assert of.label_counts.tolist() == dom.label_counts.tolist()
                assert of.words == dom.words and len(of) == len(dom)

    @settings(max_examples=100, deadline=None)
    @given(spec=st.sampled_from([G2, S2]),
           picks=st.sets(st.integers(min_value=0, max_value=16), min_size=1, max_size=6))
    def test_of_matches_word_hull(self, spec, picks):
        b2 = ball(spec, 2)
        subset = [b2[i % len(b2)] for i in picks]
        dom = Domain.of(subset, spec)
        hull = [Word(x) for x in oracle_hull([x.letters for x in subset])]
        index = {x: i for i, x in enumerate(hull)}
        gens = spec.generators()
        assert dom.words == tuple(sorted(set(subset), key=Word.shortlex_key))
        assert dom.hull_size == len(hull)
        assert dom.parent.tolist() == [-1] + [index[Word(x.letters[1:])] for x in hull[1:]]
        assert dom.letter.tolist() == [-1] + [gens.index(x.letters[0]) for x in hull[1:]]
        keep = [index[x] for x in dom.words]
        assert (dom.keep is None) == (keep == list(range(len(hull))))
        assert dom.keep is None or dom.keep.tolist() == keep
        assert oracle_left_connected([x.letters for x in subset]) == (dom.keep is None)

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=str)
    def test_of_a_ball_is_the_cached_ball(self, spec):
        import random
        for n in range(4):
            words = ball(spec, n)
            random.Random(n).shuffle(words)
            assert Domain.of(words, spec) is ball_domain(spec, n)
            assert Domain.of(words + words[:3], spec) is ball_domain(spec, n)  # repeats

    def test_of_a_non_ball_takes_the_general_path(self):
        b2 = ball(G2, 2)
        # as many words as B(e,1), but not B(e,1)
        for words in (b2[:4] + [b2[5]], b2[1:], b2[:-1], [b2[-1]]):
            dom = Domain.of(words, G2)
            assert dom is not ball_domain(G2, max(map(len, words)))
            assert dom.words == tuple(sorted(set(words), key=Word.shortlex_key))
        # a ball of the group is not a ball of the semigroup
        with pytest.raises(ValueError, match="inverse letter"):
            Domain.of(ball(G2, 1), S2)
        # as many words as the semigroup's B(e,1), one with an inverse letter
        with pytest.raises(ValueError, match="inverse letter"):
            Domain.of([IDENTITY, Word((1,)), Word((-2,))], S2)

    def test_preorder(self):
        # B(e,1) in rank 2: e, then its children in descending vertex order
        assert ball_domain(G2, 1).preorder.tolist() == [0, 4, 3, 2, 1]
        # a path is its own preorder, as is a single vertex
        assert ball_domain(GroupSpec(1, "semigroup"), 6).preorder is None
        assert ball_domain(G2, 0).preorder is None
        # a domain that is not its own hull: the positions of its vertices only
        dom = Domain.of([w("a"), w("ba"), w("Ba"), w("b")], G2)
        assert dom.hull_size == 5 and dom.words == (w("a"), w("b"), w("ba"), w("Ba"))
        assert dom.preorder.tolist() == [1, 0, 3, 2]

    def test_cached_arrays_are_read_only(self):
        dom, pair = ball_domain(G2, 2), ball_domain(G2, 2, 1)
        assert ball_domain(G2, 2) is dom
        for arr in (dom.parent, dom.label_counts, pair.letter, pair.label_counts):
            with pytest.raises(ValueError):
                arr[1] = 0
        of = Domain.of([IDENTITY, w("ab")], G2)
        with pytest.raises(ValueError):
            of.keep[0] = 0

    def test_bad_arguments(self):
        with pytest.raises(ValueError, match="radius"):
            ball_domain(G2, -1)
        with pytest.raises(ValueError, match="inverse letter"):
            ball_domain(S2, 1, -1)
        with pytest.raises(ValueError, match="outside alphabet"):
            Domain.of([IDENTITY, Word((3,))], G2)
        with pytest.raises(ValueError, match="nonempty"):
            Domain.of([], G2)
        with pytest.raises(TypeError, match="radius must be an integer"):
            ball_domain(G2, [IDENTITY])

    def test_ball_past_the_limit_refused_before_building(self):
        # the largest semigroup ball of rank 2 that fits holds 2^22 - 1 vertices
        check_radius(S2, 21)
        assert ball_size(S2, 21) == BALL_LIMIT - 1
        cached = _ball_domain.cache_info().currsize
        for spec, n in ((S2, 22), (G2, 14), (G2, 10 ** 9)):
            with pytest.raises(CapabilityError, match="more than") as exc:
                ball_domain(spec, n, spec.generators()[0])
            assert exc.value.limit == BALL_LIMIT
            assert exc.value.needed == (ball_size(spec, n) if n < 99 else None)
        assert _ball_domain.cache_info().currsize == cached


class TestEdges:
    def test_identity_alone(self):
        assert induced_left_edges([IDENTITY], G2) == []

    def test_star(self):
        edges = induced_left_edges(ball(G2, 1), G2)
        assert len(edges) == 4
        assert all(tail == IDENTITY for tail, _, _ in edges)
        assert sorted(label for _, _, label in edges) == [-2, -1, 1, 2]

    def test_path(self):
        edges = induced_left_edges([IDENTITY, w("a"), w("ba")], G2)
        assert edges == [(IDENTITY, w("a"), 1), (w("a"), w("ba"), 2)]

    def test_head_longer_than_tail(self):
        for tail, head, label in induced_left_edges(ball(G2, 3), G2):
            assert len(head) == len(tail) + 1
            assert Word((label,)) * tail == head

    @pytest.mark.parametrize("spec,n", [(G2, 2), (S2, 3), (GroupSpec(3), 2)])
    def test_spanning_tree_count(self, spec, n):
        b = ball(spec, n)
        assert len(induced_left_edges(b, spec)) == len(b) - 1


class TestConnectivityAndHull:
    # a word set is left-connected with e exactly when it is its own hull
    def test_connected_pair(self):
        assert Domain.of([IDENTITY, w("a")], G2).keep is None

    def test_disconnected_pair(self):
        dom = Domain.of([IDENTITY, w("ab")], G2)
        assert dom.hull_size == 3 and dom.keep.tolist() == [0, 2]

    def test_hull_of_gap(self):
        assert tree_hull([IDENTITY, w("ab")]) == {IDENTITY, w("b"), w("ab")}

    def test_hull_idempotent_on_connected(self):
        assert tree_hull([IDENTITY]) == {IDENTITY}
        b = set(ball(G2, 2))
        assert tree_hull(b) == b

    def test_hull_always_connected_and_contains_input(self):
        pts = [w("abA"), w("Ba")]
        hull = tree_hull(pts)
        assert oracle_left_connected([x.letters for x in hull])
        assert Domain.of(hull, G2).keep is None
        assert set(pts) <= hull and IDENTITY in hull

    @settings(max_examples=60)
    @given(st.lists(st.lists(st.sampled_from([1, -1, 2, -2]), max_size=5),
                    min_size=1, max_size=4))
    def test_hull_minimal(self, raw):
        # minimality: every leaf of the hull tree is required, i.e. lies in
        # the input (or is the identity root)
        pts = {reduce_word(l, G2) for l in raw}
        hull = tree_hull(pts)
        for word in hull:
            if _is_leaf(word, hull):
                assert word in pts or word == IDENTITY

    def test_empty_domain_rejected(self):
        # no domain is empty, but the views answer for the empty word set
        with pytest.raises(ValueError, match="nonempty"):
            Domain.of([], G2)
        assert tree_hull([]) == {IDENTITY}
        assert induced_left_edges([], G2) == []

    @settings(max_examples=100, deadline=None)
    @given(spec=st.sampled_from([G2, S2]),
           picks=st.sets(st.integers(min_value=0, max_value=52), max_size=8))
    def test_match_oracles(self, spec, picks):
        # random subsets of B(e,3), with or without e, connected or not, or empty
        b3 = ball(spec, 3)
        subset = list({b3[i % len(b3)] for i in picks})
        letters = [x.letters for x in subset]
        edges = oracle_edges(letters)
        assert tree_hull(subset) == {Word(x) for x in oracle_hull(letters)}
        assert [(tail.letters, head.letters, label)
                for tail, head, label in induced_left_edges(subset, spec)] == edges
        if subset:
            connected = oracle_left_connected(letters)
            assert connected == (Domain.of(subset, spec).keep is None)
            # an induced subgraph of a tree is connected when it has |F| - 1 edges
            assert connected == (() in letters and len(edges) == len(subset) - 1)


def _is_leaf(word, vertices):
    degree = sum(1 for v in vertices
                 if (len(v) == len(word) + 1 and v.letters[1:] == word.letters)
                 or (len(v) + 1 == len(word) and word.letters[1:] == v.letters))
    return degree == 1


class TestPast:
    def test_g_always_included(self):
        p = past(w("a"), IDENTITY, 2, G2)
        assert IDENTITY in p

    def test_star_example(self):
        p = past(w("a"), IDENTITY, 1, G2)
        assert p == [IDENTITY, w("A"), w("b"), w("B")]

    def test_whole_ball_example(self):
        p = past(w("ab"), w("b"), 1, G2)
        assert p == ball(G2, 1)

    def test_excludes_descendants_of_sg(self):
        p = past(w("a"), IDENTITY, 2, G2)
        assert w("a") not in p and w("ba") not in p and w("aa") not in p
        assert w("ab") in p  # different branch: geodesic of ab passes b, not a

    def test_invalid_pair(self):
        with pytest.raises(ValueError, match="tree edge"):
            past(w("ab"), IDENTITY, 1, G2)

    def test_semigroup(self):
        p = past(parse_word("a", S2), IDENTITY, 2, S2)
        assert IDENTITY in p and parse_word("b", S2) in p
        assert parse_word("a", S2) not in p


class TestSerialization:
    @pytest.mark.parametrize("text", ["e", "a", "A", "ab", "aBa", "bbA"])
    def test_round_trip(self, text):
        assert str(parse_word(text, G2)) == text

    def test_parse_reduces(self):
        assert str(parse_word("aA", G2)) == "e"

    def test_identity_prints_e(self):
        assert str(IDENTITY) == "e"

    def test_bad_character(self):
        with pytest.raises(ValueError, match="unknown word character"):
            parse_word("a!", G2)

    def test_letter_e_reserved(self):
        # rank 5 uses a,b,c,d,f: the 5th generator prints as 'f'
        spec5 = GroupSpec(5, "group")
        assert str(Word((5,))) == "f"
        assert parse_word("f", spec5) == Word((5,))

    def test_no_name_past_the_alphabet(self):
        # 25 printable letters: generator 25 is 'z', generator 26 has no name
        assert str(Word((25, 1, -25))) == "zaZ"
        with pytest.raises(ValueError, match="no printable name for generator 26; "
                                             "serialization covers ranks up to 25"):
            str(Word((26,)))


class TestGroupSpec:
    def test_generator_counts(self):
        assert len(G2.generators()) == 4
        assert len(S2.generators()) == 2

    def test_coefficient(self):
        assert G2.coefficient == -3
        assert GroupSpec(3).coefficient == -5

    def test_generator_names_round_trip(self):
        for s in G2.generators():
            assert G2.letter_from_name(G2.generator_name(s)) == s

    @pytest.mark.parametrize("name", ["x1", "s", "s1x", "_inv"])
    def test_bad_generator_name(self, name):
        with pytest.raises(ValueError, match=f"bad generator name {name!r}"):
            G2.letter_from_name(name)

    def test_bad_rank_and_kind(self):
        with pytest.raises(ValueError):
            GroupSpec(0)
        for rank in (2.0, 1.5, "2"):  # 2.0 would equal GroupSpec(2) yet fail in generators()
            with pytest.raises(TypeError, match=f"^rank must be an integer, got {rank!r}$"):
                GroupSpec(rank)
        with pytest.raises(ValueError):
            GroupSpec(2, "monoid")

    def test_integer_rank_stored_as_int(self):
        spec = GroupSpec(np.int64(2))
        assert type(spec.rank) is int and spec == G2 and spec.generators() == G2.generators()
        assert repr(GroupSpec(True)) == repr(GroupSpec(1))
