import gc
import hashlib
import itertools
import math
import operator
import tracemalloc
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from freemarkov.approx import ENTRY_LIMIT, markov_approximation
from freemarkov.entropy import FSTAR_CONFIG_LIMIT, big_F, big_F_star, f_markov, shannon
from freemarkov.errors import CapabilityError
from freemarkov.measure import (DENSE_LIMIT, SAMPLE_LIMIT, SPARSE_LIMIT, BallMarginal,
                                EmpiricalSource, MarkovSource,
                                _PLOGP_BLOCK, _code_dtype, _encode, _grid_fits, _join, _place, _plogp,
                                check_markov_property,
                                check_shift_invariance,
                                coarsen, cylinder_prob, empirical_source,
                                pair_stats, sample_indices, tree_entropy)
from freemarkov.transition import (TransitionSystem, bernoulli_system,
                                   flip_system, matching_system,
                                   permutation_system, product_system, validate,
                                   wsf_system)
from freemarkov.verify import (cycle_coarsening, cycle_system, perturbed_flip,
                              semigroup_example)
from freemarkov.words import (Domain, GroupSpec, IDENTITY, Word, ball, ball_domain,
                              parse_word, tree_hull)

from oracles import (as_lists, oracle_ball, oracle_entropy, oracle_grid, oracle_marginal,
                     oracle_sample_rows, oracle_support_count)
from systems import sinkhorn_system

G2 = GroupSpec(2, "group")


def w(text):
    return parse_word(text, G2)


class TestCylinderProb:
    def test_root_only(self, flip03):
        assert cylinder_prob(flip03, {IDENTITY: 0}) == 0.5

    def test_one_edge(self, flip03):
        p = cylinder_prob(flip03, {IDENTITY: 0, w("a"): 1})
        assert abs(p - 0.5 * 0.7) < 1e-15

    def test_two_edges(self, flip03):
        p = cylinder_prob(flip03, {IDENTITY: 0, w("a"): 1, w("b"): 1})
        assert abs(p - 0.5 * 0.7 ** 2) < 1e-15

    def test_mapping_order_is_irrelevant(self, wsf2):
        # the labels are read in shortlex order, whatever the mapping's order
        cylinder = {IDENTITY: "a", w("a"): "a", w("b"): "A", w("ba"): "B"}
        p = cylinder_prob(wsf2, cylinder)
        marg = MarkovSource(wsf2).ball_marginal(cylinder)
        key = tuple(wsf2.state_index(cylinder[x]) for x in marg.domain)
        assert p > 0 and abs(marg.sparse[key] - p) < 1e-15
        assert cylinder_prob(wsf2, dict(reversed(cylinder.items()))) == p
        assert cylinder_prob(wsf2, {w("b"): "A", IDENTITY: "a", w("ba"): "B",
                                    w("a"): "a"}) == p

    def test_needs_identity(self, flip03):
        with pytest.raises(ValueError, match="marginalize"):
            cylinder_prob(flip03, {w("a"): 0})

    def test_needs_connected_domain(self, flip03):
        with pytest.raises(ValueError, match="left-connected"):
            cylinder_prob(flip03, {IDENTITY: 0, w("ab"): 0})

    def test_unknown_label(self, flip03):
        with pytest.raises(ValueError, match="unknown state label 2"):
            cylinder_prob(flip03, {IDENTITY: 0, w("a"): 2})

    def test_matches_oracle_on_ball(self, wsf2):
        pi, mats = as_lists(wsf2)
        dom = tuple(ball(G2, 1))
        dist = oracle_marginal(pi, mats, [x.letters for x in dom])
        src = MarkovSource(wsf2)
        marg = src.ball_marginal(dom)
        for key, p in marg.sparse.items():
            assert abs(dist[key] - p) < 1e-14
            cylinder = {x: wsf2.states[i] for x, i in zip(marg.domain, key)}
            assert abs(cylinder_prob(wsf2, cylinder) - p) < 1e-14


class TestBallMarginal:
    def test_singleton_is_pi(self, flip03):
        m = MarkovSource(flip03).ball_marginal([IDENTITY])
        np.testing.assert_allclose(m.dense, flip03.pi)

    def test_frozen_flip_two_colorings(self):
        src = MarkovSource(flip_system(2, 0.0))
        m = src.ball_marginal(ball(G2, 1))
        supp = m.sparse
        assert len(supp) == 2
        for pat, p in supp.items():
            assert p == 0.5
            root = m.states[pat[0]]  # the identity comes first in shortlex order
            assert all(m.states[i] == 1 - root for x, i in zip(m.domain, pat)
                       if x != IDENTITY)

    @pytest.mark.parametrize("builder,n", [
        (lambda: flip_system(2, 0.3), 2), (lambda: wsf_system(2), 1),
        (lambda: matching_system(2), 1),
    ])
    def test_normalization(self, builder, n):
        ts = builder()
        m = MarkovSource(ts).ball_marginal(ball(ts.spec, n))
        assert abs(m.total() - 1.0) < 1e-12

    def test_projectivity_examples(self, flip03):
        src = MarkovSource(flip03)
        big = src.ball_marginal(ball(G2, 2))
        small = src.ball_marginal(ball(G2, 1))
        np.testing.assert_allclose(big.marginalize(ball(G2, 1)).dense,
                                   small.dense, atol=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(st.sets(st.integers(min_value=0, max_value=16), min_size=1, max_size=4))
    def test_projectivity_random_subdomains(self, idxs):
        src = MarkovSource(flip_system(2, 0.3))
        b2 = ball(G2, 2)
        sub = [b2[i] for i in idxs]
        via_big = src.ball_marginal(b2).marginalize(sub)
        direct = src.ball_marginal(sub)
        np.testing.assert_allclose(via_big.dense, direct.dense, atol=1e-12)

    def test_disconnected_domain_via_hull(self, flip03):
        # marginal on {e, ab} must equal the hull computation marginalized
        pi, mats = as_lists(flip03)
        dom = [IDENTITY, w("ab")]
        dist = oracle_marginal(pi, mats, [x.letters for x in dom])
        marg = MarkovSource(flip03).ball_marginal(dom)
        for key, p in dist.items():
            assert abs(marg.dense[key] - p) < 1e-14

    def test_sparse_route_past_dense_guard(self):
        src = MarkovSource(flip_system(2, 0.0))
        m = src.ball_marginal(ball(G2, 3))  # 2^53 dense configurations
        assert not m.is_dense
        assert len(m.sparse) == 2
        assert abs(m.total() - 1.0) < 1e-12

    def test_sparse_refuses_huge_support(self):
        src = MarkovSource(flip_system(2, 0.3))  # full support
        with pytest.raises(CapabilityError, match="support"):
            src.ball_marginal(ball(G2, 3))

    def test_support_within_limit_is_not_refused(self):
        # 3 * 2^18 of 3^19 patterns on a 19-vertex path fit the limit, though
        # a table joined with all three emission rows at once would not
        spec = GroupSpec(1, "semigroup")
        half = np.array([[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.5, 0.0, 0.5]])
        ts = TransitionSystem(spec, (0, 1, 2), np.full(3, 1 / 3), {1: half})
        assert MarkovSource(ts).ball_marginal(ball(spec, 18)).codes.size == 3 * 2 ** 18

    def test_sparse_refusal_reports_predicted_size(self):
        src = MarkovSource(flip_system(2, 0.3))  # full support on 53 vertices
        with pytest.raises(CapabilityError) as info:
            src.ball_marginal(ball(G2, 3))
        assert info.value.needed == 2 ** 53
        assert info.value.limit == SPARSE_LIMIT

    @pytest.mark.parametrize("refuse,needed,limit", [
        (lambda: MarkovSource(flip_system(2, 0.0)).ball_marginal(
            ball(G2, 3)).dense, 2 ** 53, DENSE_LIMIT),
        (lambda: big_F_star(MarkovSource(wsf_system(3)), 1, 4), 6 ** 12,
         FSTAR_CONFIG_LIMIT),
        # 2^17 superstates on B(e,2), four generators
        (lambda: markov_approximation(MarkovSource(flip_system(2, 0.3)), 2),
         4 * 2 ** 34, ENTRY_LIMIT),
    ], ids=["densify", "fstar", "superstate_entries"])
    def test_sizing_guards_report_needed_and_limit(self, refuse, needed, limit):
        with pytest.raises(CapabilityError) as info:
            refuse()
        assert (info.value.needed, info.value.limit) == (needed, limit)

    def test_empirical_marginal_holds_only_sampled_patterns(self):
        # 4^17 patterns on B(e,2); 10 sample rows hold at most 10 of them
        emp = empirical_source(wsf_system(2), 2, seed=1, count=10)
        marg = emp.ball_marginal(ball(G2, 2))
        assert marg.codes.size <= 10
        assert abs(marg.total() - 1.0) < 1e-12

    def test_sparse_json_past_64_vertices(self):
        # 161 vertices: more axes than numpy indexes, codes far past int64
        src = coarsen(cycle_system(2), [0, 1, 1])
        marg = src.ball_marginal(ball(G2, 4))
        doc = marg.to_json_dict()
        assert doc["encoding"] == "sparse" and len(doc["domain"]) == 161
        expected = sorted(
            [sum(d * 2 ** (160 - a) for a, d in enumerate(key)), p]
            for key, p in marg.sparse.items())
        assert doc["probs"] == expected
        assert len(expected) == 3 and expected[-1][0] > 2 ** 63

    def test_sparse_keys_are_ints(self, coarsened_cycle):
        margs = [MarkovSource(flip_system(2, 0.0)).ball_marginal(ball(G2, 3)),
                 coarsened_cycle.ball_marginal(ball(G2, 2)),
                 empirical_source(flip_system(2, 0.3), 1, seed=2,
                                  count=100).ball_marginal(ball(G2, 1))]
        for marg in margs:
            assert marg.sparse
            assert all(type(d) is int for key in marg.sparse for d in key)
            assert all(type(d) is int for key in marg.patterns() for d in key)

    def test_support_is_one_pattern_per_row(self, coarsened_cycle):
        marg = coarsened_cycle.ball_marginal(ball(G2, 3))
        assert not marg.is_dense
        k, n = marg.n_states, len(marg.domain)
        pats = marg.patterns()
        assert [sum(d * k ** (n - 1 - a) for a, d in enumerate(key)) for key in pats] \
            == marg.codes.tolist()
        assert list(marg.sparse.items()) == list(zip(pats, marg.masses.tolist()))

    @pytest.mark.parametrize("table", [([0, 1], [math.nan, 1.0]),
                                       ([0, 1], [math.inf, 1.0]),
                                       ([1], [math.nan]),
                                       ([0, 1], [math.inf, -math.inf]),
                                       ([0, 1], [1e308, 1e308])])
    def test_non_finite_rejected(self, table):
        # the gate's own refusal, with no numpy overflow or invalid-value warning
        codes, masses = table
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="non-finite pattern probability"):
                BallMarginal([IDENTITY], (0, 1), np.array(codes), np.array(masses))

    @pytest.mark.parametrize("codes,masses", [([2], [1.0]), ([5], [1.0]), ([-1], [1.0]),
                                              ([0, 0], [0.5, 0.5]), ([1, 0], [0.5, 0.5]),
                                              ([0], [0.5, 0.5]), ([0.5], [1.0]),
                                              ([0.0, 1.0], [0.5, 0.5]),
                                              ([False, True], [0.5, 0.5])],
                             ids=["past_top", "far_past_top", "negative", "repeated",
                                  "descending", "length_mismatch", "fractional", "float",
                                  "bool"])
    def test_malformed_codes_rejected(self, codes, masses):
        # one vertex, K = 2: codes 0 and 1, each once, ascending, one mass each
        with pytest.raises(ValueError, match="codes"):
            BallMarginal([IDENTITY], (0, 1), np.array(codes), np.array(masses))

    def test_mass_total_reported_as_float(self):
        with pytest.raises(ValueError) as info:
            BallMarginal([IDENTITY], (0, 1), np.array([0, 1]), np.array([0.5, 0.5 + 2e-7]))
        assert "sum to 1.0000002" in str(info.value)
        assert "np.float64" not in str(info.value)

    def test_mixed_radix_flat_order(self, flip03):
        m = MarkovSource(flip03).ball_marginal(ball(G2, 1))
        flat = m.dense.ravel()
        # pattern index sum_k digit_k * K^{n-1-k} in shortlex domain order
        for digits, p in m.sparse.items():
            idx = sum(d * 2 ** (len(digits) - 1 - k) for k, d in enumerate(digits))
            assert flat[idx] == p

    def test_marginal_json_dense_and_sparse(self, flip03):
        dense_doc = MarkovSource(flip03).ball_marginal(ball(G2, 1)).to_json_dict()
        assert dense_doc["encoding"] == "dense"
        assert dense_doc["domain"] == ["e", "a", "A", "b", "B"]
        assert len(dense_doc["probs"]) == 32
        sparse_doc = MarkovSource(flip_system(2, 0.0)).ball_marginal(
            ball(G2, 3)).to_json_dict()
        assert sparse_doc["encoding"] == "sparse"
        assert len(sparse_doc["probs"]) == 2


class TestOneState:
    def test_single_pattern_and_zero_F(self):
        # numpy holds at most 64 axes; B(e,4) has 161 vertices
        ts = bernoulli_system(G2, [1.0])
        src = MarkovSource(ts)
        marg = src.ball_marginal(ball(G2, 4))
        assert (marg.codes.tolist(), marg.masses.tolist()) == ([0], [1.0])
        assert marg.sparse == {(0,) * 161: 1.0}
        assert marg.to_json_dict()["probs"] == [1.0]
        assert coarsen(flip_system(2, 0.0), ["x", "x"]).ball_marginal(
            ball(G2, 4)).codes.tolist() == [0]
        assert f_markov(ts) == 0.0
        assert [big_F(src, n).big_f for n in range(5)] == [0.0] * 5

    def test_densify_past_numpy_axes_refuses(self):
        # K = 1 fits DENSE_LIMIT on any ball, but no ndarray has 161 axes
        ts = bernoulli_system(G2, [1.0])
        marg = MarkovSource(ts).ball_marginal(ball_domain(G2, 4))
        assert marg.is_dense
        assert marg.to_json_dict() == {"domain": [str(w) for w in ball(G2, 4)],
                                       "states": [0], "encoding": "dense",
                                       "probs": [1.0]}
        for refuse in (lambda: marg.dense, lambda: check_shift_invariance(ts, ball(G2, 4), 1)):
            with pytest.raises(CapabilityError) as info:
                refuse()
            assert (info.value.needed, info.value.limit) == (161, 64)
        assert MarkovSource(ts).ball_marginal(ball(G2, 2)).dense.shape == (1,) * 17


class TestTreeEntropyOracle:
    @pytest.mark.parametrize("builder,n", [
        (lambda: flip_system(2, 0.3), 2), (lambda: wsf_system(2), 1),
        (lambda: matching_system(2), 1),
    ])
    def test_closed_form_matches_brute_force(self, builder, n):
        # independent oracle pair: product-formula entropy vs enumeration
        ts = builder()
        dom = ball(ts.spec, n)
        brute = MarkovSource(ts).ball_marginal(dom).entropy()
        assert abs(tree_entropy(ts, dom) - brute) < 1e-9

    @pytest.mark.parametrize("builder,n", [
        (lambda: flip_system(2, 0.3), 1), (semigroup_example, 2),
        (lambda: bernoulli_system(G2, [0.2, 0.3, 0.5]), 1),
    ])
    def test_edge_counts_match_oracle(self, builder, n):
        # geometry label counts in the closed form vs plain enumeration
        ts = builder()
        pi, mats = as_lists(ts)
        for s in (None,) + ts.spec.generators():
            dom = ball_domain(ts.spec, n, s)
            exact = oracle_entropy(oracle_marginal(pi, mats, [x.letters for x in dom]))
            assert abs(tree_entropy(ts, dom) - exact) < 1e-12
            assert abs(tree_entropy(ts, list(dom)) - exact) < 1e-12

    def test_requires_connected_domain(self, flip03):
        with pytest.raises(ValueError):
            tree_entropy(flip03, [IDENTITY, w("ab")])

    @pytest.mark.parametrize("builder", [
        wsf_system, lambda r: permutation_system(GroupSpec(r), 64, {1: np.roll(range(64), 1)}),
    ])
    def test_builds_no_source(self, builder, monkeypatch):
        # the closed form read directly, bit for bit a kept source's entropy
        from freemarkov import measure
        ts, dom = builder(2), ball_domain(G2, 3)
        kept = MarkovSource(ts)._entropy(dom)
        assert kept[1] is not None  # the source took the closed form too

        def refuse(*args):
            raise AssertionError("tree_entropy built a source")
        monkeypatch.setattr(measure.CoarsenedSource, "__init__", refuse)
        assert tree_entropy(ts, dom).hex() == kept[0].hex()


class TestEntropySum:
    def test_routes_match_word_domains(self, flip03):
        # n = 2: the ball takes the dense table, the pair domains the closed form
        src = MarkovSource(flip03)
        terms = [(1, ball_domain(G2, 2, 1)), (-3, ball_domain(G2, 2))]
        total, hs = src.entropy_sum(terms)
        words = [src.domain_entropy(list(dom)) for _, dom in terms]
        assert hs[1] == words[1]
        assert abs(hs[0] - words[0]) < 1e-12
        assert abs(total - (words[0] - 3 * words[1])) < 1e-12

    def test_closed_form_builds_no_words(self, wsf2, monkeypatch):
        from freemarkov.entropy import big_F, f_markov

        def refuse(self):
            raise AssertionError("word built on the closed-form route")
        monkeypatch.setattr(Word, "__post_init__", refuse)
        assert abs(big_F(MarkovSource(wsf2), 7).big_f - f_markov(wsf2)) < 1e-13

    def test_closed_form_builds_no_pair_tree(self, wsf2, monkeypatch):
        from freemarkov import words

        def refuse(*args):
            raise AssertionError("pair tree built on the closed-form route")
        words._ball_domain.cache_clear()  # no pair tree built by an earlier test
        monkeypatch.setattr(words, "_pair_tree", refuse)
        assert abs(big_F(MarkovSource(wsf2), 7).big_f - f_markov(wsf2)) < 1e-13

    def test_grid_fits_boundary(self):
        # 2^20 cells hold at most 20 axes, so the test stops past 20 vertices
        assert _grid_fits(2, 20) and not _grid_fits(2, 21)
        assert _grid_fits(3, 12) and not _grid_fits(3, 13)
        assert not any(_grid_fits(1, size) for size in (0, 1, 20, 21, 10 ** 6))


class TestShiftInvariance:
    @pytest.mark.parametrize("builder,n_max", [
        (lambda: wsf_system(2), 1), (lambda: matching_system(2), 1),
        (lambda: flip_system(2, 0.3), 2),
        (lambda: bernoulli_system(G2, [0.3, 0.7]), 2),
    ])
    def test_builtins_invariant(self, builder, n_max):
        ts = builder()
        for n in range(n_max + 1):
            for s in ts.spec.generators():
                assert check_shift_invariance(ts, ball(ts.spec, n), s) < 1e-12

    def test_semigroup_invariant(self, semigroup_ts):
        for n in range(3):
            for s in semigroup_ts.spec.generators():
                dom = ball(semigroup_ts.spec, n)
                assert check_shift_invariance(semigroup_ts, dom, s) < 1e-12

    def test_singleton_domain_is_steady_state_gap(self):
        good = flip_system(2, 0.0)
        bad = TransitionSystem(good.spec, good.states, np.array([0.6, 0.4]),
                               dict(good.matrices))
        res = check_shift_invariance(bad, [IDENTITY], 1)
        assert abs(res - 0.2) < 1e-12

    def test_perturbed_pi_detected(self):
        good = wsf_system(2)
        bad = TransitionSystem(good.spec, good.states,
                               np.array([0.4, 0.2, 0.2, 0.2]), dict(good.matrices))
        assert check_shift_invariance(bad, [IDENTITY], 1) >= 0.01
        assert check_shift_invariance(bad, ball(G2, 1), 1) > 1e-3


class TestSampling:
    def test_count_zero(self, flip03):
        dom, rows = sample_indices(flip03, 1, seed=1, count=0)
        assert dom == tuple(ball(G2, 1)) and rows.shape == (0, 5)

    def test_deterministic_given_seed(self, flip03):
        a = sample_indices(flip03, 2, seed=7, count=50)[1]
        b = sample_indices(flip03, 2, seed=7, count=50)[1]
        np.testing.assert_array_equal(a, b)
        c = sample_indices(flip03, 2, seed=8, count=50)[1]
        assert (a != c).any()

    def test_matching_constraint_almost_sure(self, matching2):
        dom, rows = sample_indices(matching2, 2, seed=3, count=2000)
        pos = {word: i for i, word in enumerate(dom)}
        s_idx = {s: matching2.state_index(str(Word((s,))))
                 for s in G2.generators()}
        from freemarkov.words import induced_left_edges
        for tail, head, label in induced_left_edges(dom, G2):
            tails, heads = rows[:, pos[tail]], rows[:, pos[head]]
            fire = tails == s_idx[label]
            assert (heads[fire] == s_idx[-label]).all()

    def test_wsf_constraint_almost_sure(self, wsf2):
        dom, rows = sample_indices(wsf2, 2, seed=3, count=2000)
        pos = {word: i for i, word in enumerate(dom)}
        s_idx = {s: wsf2.state_index(str(Word((s,)))) for s in G2.generators()}
        from freemarkov.words import induced_left_edges
        for tail, head, label in induced_left_edges(dom, G2):
            tails, heads = rows[:, pos[tail]], rows[:, pos[head]]
            fire = tails == s_idx[label]
            assert not (heads[fire] == s_idx[-label]).any()

    def test_frequencies_converge(self, flip03):
        dom, rows = sample_indices(flip03, 1, seed=11, count=100_000)
        counts = np.zeros((2,) * 5)
        np.add.at(counts, tuple(rows.T), 1.0)
        freq = counts / rows.shape[0]
        exact = MarkovSource(flip03).ball_marginal(dom).dense
        band = 4.0 * np.sqrt(exact * (1 - exact) / rows.shape[0])
        assert (np.abs(freq - exact) <= band).all()

    def test_negative_radius_rejected(self, flip03):
        with pytest.raises(ValueError, match="radius"):
            sample_indices(flip03, -1, seed=1, count=1)

    def test_bad_radius_and_count_named(self, flip03, wsf2):
        with pytest.raises(TypeError, match="radius must be an integer"):
            sample_indices(flip03, [IDENTITY], seed=1, count=1)
        with pytest.raises(ValueError, match="count must be nonnegative"):
            sample_indices(flip03, 1, seed=1, count=-1)
        for count in (2.5, math.nan, "3"):
            for call in (sample_indices, empirical_source):
                with pytest.raises(TypeError, match="sample count must be an integer, got "):
                    call(flip03, 1, seed=1, count=count)
        with pytest.raises(CapabilityError, match="more than"):
            sample_indices(wsf2, 19, seed=1, count=1)

    def test_table_past_the_limit_refused(self, wsf2):
        # 2600 samples on the 13,121-vertex B(e,8) are 34,114,600 cells
        with pytest.raises(CapabilityError, match="table cells") as exc:
            sample_indices(wsf2, 8, seed=1, count=2600)
        assert exc.value.needed == 2600 * 13_121 > SAMPLE_LIMIT
        assert exc.value.limit == SAMPLE_LIMIT

    def test_patterns_carry_labels(self, wsf2):
        dom, rows = sample_indices(wsf2, 0, seed=5, count=3)
        assert dom == (IDENTITY,) and rows.shape == (3, 1)
        assert ((0 <= rows) & (rows < wsf2.n_states)).all()

    def test_invalid_system_refused(self):
        # a non-stationary pi summing to 1, and a pi summing to 2
        doubled = TransitionSystem(G2, (0, 1), np.array([1.0, 1.0]),
                                   dict(flip_system(2, 0.3).matrices))
        for ts in (perturbed_flip(0.3), doubled):
            with pytest.raises(ValueError, match="fails validation"):
                sample_indices(ts, 1, seed=1, count=10)

    def test_one_verdict_per_system(self, monkeypatch):
        # a system cannot change, so each is validated on its first draw
        # only; an invalid one is refused with the same message every time
        from freemarkov import transition
        calls, validate_once = [], transition.validate
        monkeypatch.setattr(transition, "validate",
                            lambda ts, tol: calls.append(ts) or validate_once(ts, tol))
        good, bad = flip_system(2, 0.3), perturbed_flip(0.3)
        draws = [sample_indices(good, 1, seed=4, count=10)[1] for _ in range(3)]
        assert all((rows == draws[0]).all() for rows in draws) and calls == [good]
        messages = []
        for _ in range(3):
            with pytest.raises(ValueError, match="fails validation at 1e-09") as refusal:
                sample_indices(bad, 1, seed=1, count=10)
            messages.append(str(refusal.value))
        assert messages == messages[:1] * 3 and calls == [good, bad]


class TestEmpirical:
    def test_marginal_within_ball(self, flip03):
        src = empirical_source(flip03, 1, seed=2, count=10_000)
        m = src.ball_marginal([IDENTITY])
        assert abs(m.total() - 1.0) < 1e-12
        assert np.abs(m.dense - flip03.pi).max() < 0.05

    def test_beyond_ball_refused(self, flip03):
        src = empirical_source(flip03, 1, seed=2, count=100)
        with pytest.raises(CapabilityError, match="cannot see"):
            src.ball_marginal(ball(G2, 2))

    def test_row_layout_does_not_matter(self, wsf2):
        dom, rows = sample_indices(wsf2, 2, seed=4, count=500)
        assert rows.flags.f_contiguous  # the sampler's vertex-major table
        by_rows = EmpiricalSource(dom, wsf2.states, np.ascontiguousarray(rows), G2)
        by_cols = EmpiricalSource(dom, wsf2.states, rows, G2)
        domains = [ball_domain(G2, 1)] + [ball_domain(G2, 1, s) for s in (1, 2)]
        for d in domains:
            a, b = by_rows.ball_marginal(d), by_cols.ball_marginal(d)
            np.testing.assert_array_equal(a.codes, b.codes)
            np.testing.assert_array_equal(a.masses, b.masses)
        assert big_F(by_rows, 1).big_f == big_F(by_cols, 1).big_f


class TestCoarsen:
    def test_identity_map_matches_markov(self, flip03):
        c = coarsen(flip03, [0, 1])
        m1 = c.ball_marginal(ball(G2, 1))
        m2 = MarkovSource(flip03).ball_marginal(ball(G2, 1))
        assert m1.codes.dtype == m2.codes.dtype
        assert m1.codes.tobytes() == m2.codes.tobytes()
        assert m1.masses.tobytes() == m2.masses.tobytes()

    def test_singleton_is_pushforward_of_pi(self, coarsened_cycle):
        m = coarsened_cycle.ball_marginal([IDENTITY])
        np.testing.assert_allclose(m.dense, [1 / 3, 2 / 3], atol=1e-14)

    def test_constant_map_is_point_mass(self, flip03):
        c = coarsen(flip03, ["x", "x"])
        m = c.ball_marginal(ball(G2, 1))
        assert m.dense.shape == (1,) * 5
        assert abs(m.dense.ravel()[0] - 1.0) < 1e-12

    def test_cycle_coarsening_matches_oracle(self, coarsened_cycle):
        base = coarsened_cycle.base.ts
        pi, mats = as_lists(base)
        dom = ball(G2, 1)
        dist = oracle_marginal(pi, mats, [x.letters for x in dom],
                               coarsen_map=[0, 1, 1])
        marg = coarsened_cycle.ball_marginal(dom)
        assert abs(marg.entropy() - oracle_entropy(dist)) < 1e-12
        for key, p in dist.items():
            assert abs(marg.dense[key] - p) < 1e-14

    def test_sparse_coarsened(self, coarsened_cycle):
        m = coarsened_cycle.ball_marginal(ball(G2, 2))  # 3^17 hidden patterns
        assert len(m.sparse) == 3
        assert abs(m.entropy() - math.log(3)) < 1e-12


class TestMarkovProperty:
    def test_markov_source_gap_zero(self, flip03):
        gap = check_markov_property(MarkovSource(flip03), IDENTITY, 1, 1)
        assert gap < 1e-12

    def test_coarsened_has_memory(self, coarsened_cycle):
        gap = check_markov_property(coarsened_cycle, IDENTITY, 1, 1)
        assert gap > 0.001
        assert abs(gap - (2.0 / 3.0) * math.log(2)) < 1e-12

    def test_deterministic_system_all_zero(self):
        ts = permutation_system(G2, 3, {1: (1, 2, 0)})
        src = MarkovSource(ts)
        gap = check_markov_property(src, IDENTITY, 2, 1)
        assert gap < 1e-12
        # both conditional entropies vanish outright, not just their gap
        step = w("b")
        h_pair = src.domain_entropy([IDENTITY, step]) - src.domain_entropy([IDENTITY])
        assert abs(h_pair) < 1e-12

    def test_nonidentity_base_point(self, flip03):
        gap = check_markov_property(MarkovSource(flip03), w("b"), 1, 2)
        assert gap < 1e-12


class TestD1:
    """Pair statistics of a source against those of its system."""

    def test_source_stats_match_system_stats(self, wsf2):
        sa = pair_stats(wsf2)
        sb = pair_stats(MarkovSource(wsf2))
        np.testing.assert_allclose(sb.pi, sa.pi, rtol=0, atol=1e-14)
        assert sb.joints.keys() == sa.joints.keys()
        assert sum(np.abs(sb.joints[s] - sa.joints[s]).sum() for s in sa.joints) < 1e-12


class TestSupportCount:
    """The hull-tree count against enumeration and the brute-force oracle."""

    @settings(max_examples=50, deadline=None)
    @given(kind=st.sampled_from(["group", "semigroup"]),
           k=st.integers(min_value=2, max_value=4),
           seed=st.integers(min_value=0, max_value=2 ** 31 - 1),
           n_perms=st.integers(min_value=0, max_value=3),
           picks=st.sets(st.integers(min_value=0, max_value=16), min_size=1,
                         max_size=3))
    def test_matches_enumeration_and_oracle(self, kind, k, seed, n_perms, picks):
        spec = GroupSpec(2, kind)
        ts = sinkhorn_system(spec, k, seed, n_perms)
        src = MarkovSource(ts)
        pi, mats = as_lists(ts)
        b2 = ball(spec, 2)
        random_hull = sorted(tree_hull([b2[i % len(b2)] for i in picks]),
                             key=Word.shortlex_key)
        domains = [tuple(ball_domain(spec, 1)), tuple(random_hull)]
        domains += [tuple(ball_domain(spec, 1, s)) for s in spec.generators()]
        for hull in domains:
            tree = Domain.of(hull, spec)
            count = src._support_count(tree)
            assert count == src.ball_marginal(hull).codes.size
            assert count == src._sum_product(tree)[0].size  # where the marginal took the grid
            if k ** len(hull) <= 2 ** 14:
                assert count == oracle_support_count(
                    pi, mats, [x.letters for x in hull])

    def test_zero_root_mass_and_zero_rows(self):
        # states outside the support of pi, and a row with no positive entry
        spec = GroupSpec(1, "semigroup")
        pi = np.array([0.5, 0.5, 0.0])
        mats = {1: np.array([[0.0, 1.0, 0.0], [0.5, 0.0, 0.5], [0.0, 0.0, 0.0]])}
        src = MarkovSource(TransitionSystem(spec, (0, 1, 2), pi, mats))
        hull = tuple(ball(spec, 4))
        pi_l, mats_l = as_lists(src.ts)
        expected = oracle_support_count(pi_l, mats_l, [x.letters for x in hull])
        tree = Domain.of(hull, spec)
        assert src._support_count(tree) == expected
        # both table builders; the system is invalid, so no marginal is built
        assert src._grid(tree)[0].size == expected
        assert src._sum_product(tree)[0].size == expected


class TestSumProductOracle:
    """Coarsened marginals and F on random invariant systems, against the oracle."""

    @settings(max_examples=60, deadline=None)
    @given(kind=st.sampled_from(["group", "semigroup"]),
           k=st.integers(min_value=2, max_value=4),
           seed=st.integers(min_value=0, max_value=2 ** 31 - 1),
           n_perms=st.integers(min_value=0, max_value=3),
           picks=st.sets(st.integers(min_value=0, max_value=16), min_size=1,
                         max_size=4))
    def test_coarsened_marginals(self, kind, k, seed, n_perms, picks):
        spec = GroupSpec(2, kind)
        rng = np.random.default_rng(seed)
        ts = sinkhorn_system(spec, k, rng, n_perms)
        cmap = rng.integers(0, k, size=k).tolist()
        src = coarsen(ts, cmap)
        pi, mats = as_lists(ts)
        b2 = ball(spec, 2)
        subset = [b2[i % len(b2)] for i in picks]  # left-connected or not
        domains = [ball_domain(spec, 1), subset,
                   sorted(tree_hull(subset), key=Word.shortlex_key)]
        domains += [ball_domain(spec, 1, s) for s in spec.generators()]
        for dom in domains:
            if k ** len(tree_hull(dom)) > 2 ** 14:
                continue
            expected = oracle_marginal(pi, mats, [x.letters for x in dom],
                                       coarsen_map=cmap)
            got = {tuple(src.states[i] for i in key): p
                   for key, p in src.ball_marginal(dom).sparse.items()}
            assert got.keys() == expected.keys()
            assert max(abs(got[key] - p) for key, p in expected.items()) <= 1e-14

    @settings(max_examples=30, deadline=None)
    @given(kind=st.sampled_from(["group", "semigroup"]),
           k=st.integers(min_value=2, max_value=4),
           seed=st.integers(min_value=0, max_value=2 ** 31 - 1),
           n_perms=st.integers(min_value=0, max_value=3))
    def test_coarsened_F_nonincreasing(self, kind, k, seed, n_perms):
        rng = np.random.default_rng(seed)
        ts = sinkhorn_system(GroupSpec(2, kind), k, rng, n_perms)
        src = coarsen(ts, rng.integers(0, k, size=k).tolist())
        prev = math.inf
        for n in range(3):
            try:
                f = big_F(src, n).big_f
            except CapabilityError as refusal:  # too many hidden patterns here and deeper
                assert refusal.limit == SPARSE_LIMIT
                break
            assert f <= prev + 1e-10
            prev = f


class TestDomainEntropy:
    """The uncoded shared-class sum-product entropy against the marginal's."""

    @settings(max_examples=40, deadline=None)
    @given(kind=st.sampled_from(["group", "semigroup"]),
           k=st.integers(min_value=2, max_value=4),
           seed=st.integers(min_value=0, max_value=2 ** 31 - 1),
           n_perms=st.integers(min_value=0, max_value=3),
           picks=st.sets(st.integers(min_value=0, max_value=16), min_size=1,
                         max_size=4))
    def test_matches_marginal_and_oracle(self, kind, k, seed, n_perms, picks):
        spec = GroupSpec(2, kind)
        rng = np.random.default_rng(seed)
        ts = sinkhorn_system(spec, k, rng, n_perms)
        cmap = rng.integers(0, k, size=k).tolist()
        pi, mats = as_lists(ts)
        b2 = ball(spec, 2)
        domains = [ball_domain(spec, n) for n in range(3)]
        domains += [ball_domain(spec, 1, s) for s in spec.generators()]
        domains.append([b2[i % len(b2)] for i in picks])  # left-connected or not
        # spheres and balls without e are not their own hulls
        domains += [[x for x in b2 if len(x) == n] for n in (1, 2)]
        domains += [b2[1:], ball(spec, 3)[1:]]
        base = MarkovSource(ts)
        for src, coarsen_map in ((coarsen(ts, cmap), cmap), (base, None)):
            for dom in domains:
                if 2 ** 14 < base._support_count(Domain.of(dom, spec)) <= SPARSE_LIMIT:
                    continue  # a large table; refusals are still compared
                try:
                    marg = src.ball_marginal(dom)
                except CapabilityError as refusal:
                    if len(src.states) == k and Domain.of(dom, spec).keep is None:
                        continue  # a one-to-one source's closed form builds no table
                    with pytest.raises(CapabilityError) as info:
                        src.domain_entropy(dom)
                    assert (str(info.value), info.value.needed, info.value.limit) == (
                        str(refusal), refusal.needed, refusal.limit)
                    continue
                h = src.domain_entropy(dom)
                assert abs(h - marg.entropy()) <= 1e-12
                if k ** len(tree_hull(dom)) <= 2 ** 14:
                    exact = oracle_entropy(oracle_marginal(
                        pi, mats, [x.letters for x in dom], coarsen_map=coarsen_map))
                    assert abs(h - exact) <= 1e-12

    @settings(max_examples=20, deadline=None)
    @given(kind=st.sampled_from(["group", "semigroup"]),
           k=st.integers(min_value=2, max_value=4),
           seed=st.integers(min_value=0, max_value=2 ** 31 - 1),
           n_perms=st.integers(min_value=0, max_value=3),
           picks=st.sets(st.integers(min_value=0, max_value=16), min_size=1,
                         max_size=4))
    def test_empirical_matches_marginal(self, kind, k, seed, n_perms, picks):
        # the one table hook: the same masses, so the same bits and refusals
        spec = GroupSpec(2, kind)
        rng = np.random.default_rng(seed)
        src = empirical_source(sinkhorn_system(spec, k, rng, n_perms), 2,
                               seed=seed, count=200)
        b2 = ball(spec, 2)
        domains = [ball_domain(spec, n) for n in range(4)]
        domains += [ball_domain(spec, n, s) for n in (1, 2) for s in spec.generators()]
        domains += [[b2[i % len(b2)] for i in picks], b2[1:], ball(spec, 3)[1:]]
        seen = refused = 0
        for dom in domains:
            try:
                h = src.ball_marginal(dom).entropy()
            except CapabilityError as refusal:
                with pytest.raises(CapabilityError, match="cannot see") as info:
                    src.domain_entropy(dom)
                assert str(info.value) == str(refusal)
                refused += 1
                continue
            assert src.domain_entropy(dom) == h
            seen += 1
        assert seen >= 7 and refused >= 3

    @pytest.mark.parametrize("src,dom", [
        # 4^17 hidden patterns on B(e,2)
        (coarsen(product_system(flip_system(2, 0.3), flip_system(2, 0.1)), [0, 1, 1, 0]),
         ball_domain(G2, 2)),
        # full support on B(e,3), whose hull B(e,3) without e is not
        (MarkovSource(flip_system(2, 0.3)), ball(G2, 3)[1:]),
    ], ids=["coarsened_ball", "markov_non_hull"])
    def test_refusals_match_the_marginal(self, src, dom):
        refusals = []
        for compute in (src.ball_marginal, src.domain_entropy):
            with pytest.raises(CapabilityError) as info:
                compute(dom)
            refusals.append((str(info.value), info.value.needed, info.value.limit))
        assert refusals[0] == refusals[1]
        assert refusals[0][1] > SPARSE_LIMIT == refusals[0][2]

    @pytest.mark.parametrize("pi,row", [
        ([0.6, 0.6], [0.5, 0.5]), ([math.nan, 0.5], [0.5, 0.5]),
        ([math.inf, 0.5], [0.5, 0.5]), ([0.5, 0.5], [1.5, -0.5]),
    ], ids=["unnormalized", "nan", "inf", "negative"])
    def test_invalid_systems_fail_alike(self, pi, row):
        spec = GroupSpec(1, "semigroup")
        m = np.array([row, [0.0, 1.0]])  # few hidden patterns: no support refusal
        ts = TransitionSystem(spec, (0, 1), np.array(pi), {1: m})
        dom = ball(spec, 22)[1:]  # 23 hull vertices: no grid; not its own hull: no closed form
        for src in (MarkovSource(ts), coarsen(ts, [0, 1])):
            errors = []
            for compute in (src.ball_marginal, src.domain_entropy):
                with pytest.raises(ValueError) as info:
                    compute(dom)
                errors.append(str(info.value))
            assert errors[0] == errors[1]

    def test_class_counts(self):
        # the root, a class per leading letter and height, and the leaves
        for spec, n, classes, pairs in [(G2, 5, 18, [19, 19]), (GroupSpec(3), 3, 14, [15] * 3),
                                        (GroupSpec(2, "semigroup"), 5, 6, [7, 7])]:
            dom = ball_domain(spec, n)
            shared, root = dom.subtree_classes
            assert (len(shared), root) == (classes, classes - 1)
            assert [len(ball_domain(spec, n, s).subtree_classes[0])
                    for s in spec.positive_generators()] == pairs
            # the class-local codes' digit order: e's digit first, every position once
            order = dom.preorder.tolist()
            assert order[0] == 0 and sorted(order) == list(range(len(dom)))
            assert dom.subtree_classes is dom.subtree_classes  # cached

    def test_shared_classes_have_one_shape(self):
        # each class's vertices: same domain flag, children and letters
        dom = Domain.of([x for x in ball(G2, 3) if len(x) != 1], G2)
        classes, root = dom.subtree_classes
        kept = set(dom.kept())
        cls = {}
        for v in range(dom.hull_size - 1, -1, -1):
            kids = tuple((cls[c], int(dom.letter[c])) for c in range(dom.hull_size - 1, 0, -1)
                         if dom.parent[c] == v)
            cls[v] = classes.index((True if v in kept else None, kids))
        assert cls[0] == root and set(cls.values()) == set(range(len(classes)))


class TestGridEntropy:
    """The uncoded grid, byte for byte against the broadcast fill, and its
    entropy against the marginal's, the closed form and the oracle."""

    @settings(max_examples=30, deadline=None)
    @given(kind=st.sampled_from(["group", "semigroup"]),
           rank=st.integers(min_value=1, max_value=3),
           k=st.integers(min_value=2, max_value=5),
           seed=st.integers(min_value=0, max_value=2 ** 31 - 1),
           n_perms=st.integers(min_value=0, max_value=3))
    def test_matches_marginal_closed_form_and_oracle(self, kind, rank, k, seed, n_perms):
        spec = GroupSpec(rank, kind)
        ts = sinkhorn_system(spec, k, seed, n_perms)
        src = MarkovSource(ts)
        pi, mats = as_lists(ts)
        domains = []  # every ball and pair domain whose grid fits
        for n in itertools.count():
            if not _grid_fits(k, len(ball_domain(spec, n))):
                break
            domains += [ball_domain(spec, n)] + [
                d for d in (ball_domain(spec, n, s) for s in spec.generators())
                if _grid_fits(k, len(d))]
        # not their own hulls: a gap, two crossed words, the sphere of radius 1
        words = ["aa"] + (["ab", "ba"] if rank > 1 else [])
        domains += [[IDENTITY] + [parse_word(x, spec) for x in words],
                    ball(spec, 1)[1:]]
        for dom in domains:
            tree = Domain.of(dom, spec)
            assert _grid_fits(k, tree.hull_size)
            grid = oracle_grid(ts.pi, [(p, ts.stacked[a]) for p, a in tree.tree_edges()],
                               None if tree.keep is None else tree.keep.tolist())
            assert src._grid(tree, coded=False)[1].tobytes() == grid.tobytes()
            h = src.domain_entropy(dom)
            assert abs(h - src.ball_marginal(dom).entropy()) <= 1e-12
            if tree.keep is None:
                assert abs(h - tree_entropy(ts, dom)) <= 1e-12
            else:
                exact = oracle_entropy(oracle_marginal(pi, mats, [x.letters for x in dom]))
                assert abs(h - exact) <= 1e-12

    def test_peak_memory_near_the_table(self):
        # the 5^8-cell grid of a pair domain, full support: no codes, no gathered masses
        src = MarkovSource(bernoulli_system(G2, [0.1, 0.15, 0.2, 0.25, 0.3]))
        dom = ball_domain(G2, 1, 1)
        src.domain_entropy(dom)  # the pair tree and cached entropies are built once
        tracemalloc.start()
        try:
            src.domain_entropy(dom)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * 5 ** 8 * 8


class TestPlogp:
    """The blocked -sum p log p: one block as a single numpy sum, more as an exact sum;
    a zero entropy is +0.0; all-positive masses summed with no filtered copy."""

    @staticmethod
    def _one_sum(values):
        v = values[values > 0]
        return 0.0 - float((v * np.log(v)).sum())

    @pytest.mark.parametrize("size", [0, 1, _PLOGP_BLOCK - 1, _PLOGP_BLOCK,
                                      _PLOGP_BLOCK + 1, 3 * _PLOGP_BLOCK + 7])
    def test_blocks(self, size):
        rng = np.random.default_rng(size)
        values = rng.uniform(size=size) * (rng.uniform(size=size) < 0.8)  # a fifth zeros
        values /= max(values.sum(), 1.0)
        h = _plogp(values)
        if size <= _PLOGP_BLOCK:
            assert h.hex() == self._one_sum(values).hex()
        else:
            v = values[values > 0]
            exact = -math.fsum((v * np.log(v)).tolist())
            assert abs(h - exact) <= 1e-15 * abs(exact)

    def test_all_positive_blocks(self):
        # no zero mass: summed as they are, the bits of the filtered block sums
        values = np.random.default_rng(7).uniform(0.5, 1.0, size=3 * _PLOGP_BLOCK + 7)
        values /= values.sum()
        blocks = (values[i:i + _PLOGP_BLOCK] for i in range(0, values.size, _PLOGP_BLOCK))
        filtered = 0.0 - math.fsum(-self._one_sum(b) for b in blocks)
        for h in (_plogp(values, all_positive=True), shannon(values)):
            assert h.hex() == filtered.hex()

    def test_zero_and_tiny_negative_left_out(self):
        # the smallest mass is not positive: a zero and a mass in [-1e-12, 0) are filtered out
        assert shannon([0.5, 0.0, 0.5, -1e-13]).hex() == shannon([0.5, 0.5]).hex()

    def test_two_dimensional(self, wsf2):
        # f_markov passes the joint pi_i P[s]_ij as a matrix; C order, as raveled
        joint = wsf2.pi[:, None] * wsf2.matrices[1]
        for table in (joint, joint.T, np.ones((1, 1))):
            assert _plogp(table).hex() == self._one_sum(table).hex()


def _oracle_codes(dist, states, k, n):
    """Ascending codes, with the dtype of the K^n rule, and masses of an
    oracle distribution whose keys are state labels."""
    dtype = np.int64 if k ** n < 2 ** 63 else object
    rows = sorted((sum(states.index(v) * k ** (n - 1 - a) for a, v in enumerate(key)), p)
                  for key, p in dist.items() if p > 0)
    return np.array([c for c, _ in rows], dtype=dtype), np.array([p for _, p in rows])


class TestClassCodes:
    """Class-local codes, placed at the root in shortlex order."""

    @settings(max_examples=50, deadline=None)
    @given(kind=st.sampled_from(["group", "semigroup"]),
           k=st.integers(min_value=2, max_value=4),
           seed=st.integers(min_value=0, max_value=2 ** 31 - 1),
           n_perms=st.integers(min_value=0, max_value=3),
           picks=st.sets(st.integers(min_value=0, max_value=16), min_size=1,
                         max_size=4))
    def test_coarsened_codes_match_oracle(self, kind, k, seed, n_perms, picks):
        spec = GroupSpec(2, kind)
        rng = np.random.default_rng(seed)
        ts = sinkhorn_system(spec, k, rng, n_perms)
        cmap = rng.integers(0, k, size=k).tolist()
        src = coarsen(ts, cmap)
        pi, mats = as_lists(ts)
        b2 = ball(spec, 2)
        domains = [ball_domain(spec, n) for n in range(3)]
        domains += [ball_domain(spec, 1, s) for s in spec.generators()]
        domains += [[b2[i % len(b2)] for i in picks], b2[1:], [x for x in b2 if len(x) == 2]]
        for dom in domains:
            if k ** len(tree_hull(dom)) > 2 ** 14:
                continue
            marg = src.ball_marginal(dom)
            codes, masses = _oracle_codes(oracle_marginal(
                pi, mats, [x.letters for x in dom], coarsen_map=cmap),
                src.states, len(src.states), len(marg.domain))
            assert marg.codes.dtype == codes.dtype
            np.testing.assert_array_equal(marg.codes, codes)
            assert np.abs(marg.masses - masses).max() <= 1e-14

    @pytest.mark.parametrize("src,domains", [
        (cycle_coarsening(), [ball_domain(G2, n) for n in (2, 3, 4)] + [ball_domain(G2, 3, -1)]),
        (coarsen(flip_system(3, 0.3), [0, 1]),
         [ball_domain(GroupSpec(3), 1), ball_domain(GroupSpec(3), 1, 2)]),
        (coarsen(product_system(flip_system(2, 0.3), flip_system(2, 0.1)), [0, 1, 1, 0]),
         [ball_domain(G2, 1, 1), ball(G2, 2)[1:9]]),
        (MarkovSource(semigroup_example()), [ball_domain(GroupSpec(2, "semigroup"), 3)]),
        (MarkovSource(cycle_system(2)), [ball_domain(G2, 3), ball(G2, 3)[1:]]),
    ], ids=["cycle", "rank3", "flipflip", "semigroup", "markov_cycle"])
    def test_pieces_placed_first_or_root_after(self, src, domains, monkeypatch):
        from freemarkov import measure
        for dom in domains:
            dom = Domain.of(dom, src.spec)
            out = []
            for first in (0, 10 ** 30):  # every root placed first, none
                monkeypatch.setattr(measure, "_PLACE_FIRST", first)
                out.append(src._sum_product(dom))
            assert out[0][0].dtype == out[1][0].dtype
            np.testing.assert_array_equal(out[0][0], out[1][0])
            np.testing.assert_array_equal(out[0][1], out[1][1])

    def test_cached_domain_read_by_two_alphabet_sizes(self):
        # the root's digit constants are kept per domain and K': one cached
        # pair domain, read in turn over K' = 2 and K' = 3, gives each the oracle codes
        ts = wsf_system(2)
        pi, mats = as_lists(ts)
        pair = ball_domain(G2, 1, 1)
        assert pair.preorder is not None  # its root codes are placed
        words = [x.letters for x in pair]
        for _ in range(2):
            for cmap in ([0, 0, 1, 1], [0, 1, 2, 2]):
                src = coarsen(ts, cmap)
                marg = src.ball_marginal(pair)
                codes, masses = _oracle_codes(oracle_marginal(pi, mats, words, coarsen_map=cmap),
                                              src.states, len(src.states), len(pair))
                np.testing.assert_array_equal(marg.codes, codes)
                assert np.abs(marg.masses - masses).max() <= 1e-14
        assert {2, 3} <= set(pair.digit_constants)

    def test_collected_domain_hands_on_no_constants(self):
        # each Domain.of domain starts with no constants of its own, even
        # where it takes the place of a collected one
        src = coarsen(wsf_system(2), [0, 1, 2, 2])
        pi, mats = as_lists(src.ts)
        b2 = ball(G2, 2)
        for lo in range(1, 5):
            dom = Domain.of(b2[lo:lo + 4], G2)  # hulls of 5 to 7 vertices
            assert dom.digit_constants == {}
            codes, _ = _oracle_codes(oracle_marginal(pi, mats, [x.letters for x in dom],
                                                     coarsen_map=[0, 1, 2, 2]),
                                     src.states, 3, len(dom))
            np.testing.assert_array_equal(src.ball_marginal(dom).codes, codes)
            assert set(dom.digit_constants) == {3}
            del dom
            gc.collect()

    def test_one_join_per_class(self, coarsened_cycle, monkeypatch):
        # each class joins all its pieces at once: at a domain vertex the
        # emission, then its children's messages
        from freemarkov import measure
        calls, join = [], measure._join

        def spy(pieces, kp, hull_size):
            calls.append(len(pieces))
            return join(pieces, kp, hull_size)

        monkeypatch.setattr(measure, "_join", spy)
        flipflip = coarsen(product_system(flip_system(2, 0.3), flip_system(2, 0.1)), [0, 1, 1, 0])
        for src, dom in ((coarsened_cycle, ball_domain(G2, 3)), (flipflip, ball(G2, 2)[1:9]),
                         (flipflip, ball_domain(G2, 1, 2))):
            dom = Domain.of(dom, G2)
            for coded in (True, False):
                calls.clear()
                src._sum_product(dom, coded=coded)
                classes, _ = dom.subtree_classes
                assert calls == [len(children) + (own is True) for own, children in classes]
            assert any(n > 2 for n in calls)

    def test_coarsened_cycle_exact_ints(self, coarsened_cycle):
        # x(w) = x(e) + (signed letter count of w) mod 3, observed as [0, 1, 1]
        words = ball(G2, 5)
        marg = coarsened_cycle.ball_marginal(ball_domain(G2, 5))
        expected = sorted(sum(int((x + sum(1 if l > 0 else -1 for l in v.letters)) % 3 != 0)
                              << (len(words) - 1 - a) for a, v in enumerate(words))
                          for x in range(3))
        assert marg.codes.dtype == object and marg.codes.tolist() == expected
        assert all(type(c) is int for c in marg.codes)
        # the values of the per-vertex walk this replaced
        assert hashlib.sha256(str(marg.codes.tolist()).encode()).hexdigest() == (
            "e310fef12ae116404565425d0487cfee07c4987b3c1f4046be32e976ac1f1eab")
        assert [m.hex() for m in marg.masses.tolist()] == ["0x1.5555555555555p-2"] * 3
        # exact-int digits read into int64 codes
        positions = list(range(0, 485, 13))
        sub = marg.sub_codes(positions)
        assert sub.dtype == np.int64
        assert sub.tolist() == [sum(((c >> (484 - a)) & 1) << (len(positions) - 1 - b)
                                    for b, a in enumerate(positions)) for c in expected]
        # numpy positions too: their powers of K are exact ints, not wrapped int64
        assert marg.sub_codes(np.array(positions)).tolist() == sub.tolist()
        # a leading prefix, read at once, in int64 up to 62 digits and exact ints past that
        for p, dtype in ((1, np.int64), (62, np.int64), (63, object), (485, object)):
            lead = marg.sub_codes(range(p))
            assert lead.dtype == dtype and lead.tolist() == [c >> (485 - p) for c in expected]
            weights = np.zeros(485, dtype=dtype)  # the general recode of the same positions
            weights[:p] = [2 ** (p - 1 - i) for i in range(p)]
            assert lead.tolist() == _place((None, marg.codes, 485), 2, weights)[1].tolist()

    def test_sub_codes_positions_in_range_and_repeated(self, flip03):
        marg = MarkovSource(flip03).ball_marginal(ball_domain(G2, 1))  # all 32 patterns
        for bad in (5, 7, -1):
            with pytest.raises(ValueError, match=f"^position {bad} is outside the 5-vertex domain$"):
                marg.sub_codes([0, bad])
        # a repeated position adds its weights: 2 x_1 + x_1
        assert marg.sub_codes([1, 1]).tolist() == ([0] * 8 + [3] * 8) * 2

    @pytest.mark.parametrize("table", ["sinkhorn_k4", "exact_ints"])
    def test_decode_across_blocks(self, table):
        # 4^8 codes of 8 digits in 8 blocks, or 2,000 exact-int codes of 70
        # digits in 3, read against a divmod decode of each code
        rng = np.random.default_rng(26)
        if table == "sinkhorn_k4":
            marg = MarkovSource(sinkhorn_system(G2, 4, 11)).ball_marginal(ball_domain(G2, 1, 1))
            assert marg.codes.tolist() == list(range(4 ** 8))
        else:
            codes = sorted({int(c) << 35 | int(d) for c, d in rng.integers(0, 2 ** 35, (2000, 2))})
            marg = BallMarginal(ball(G2, 4)[:70], (0, 1), np.array(codes, dtype=object),
                                np.full(len(codes), 1 / len(codes)))
        k, n = marg.n_states, len(marg.domain)
        expected = []
        for c in marg.codes.tolist():
            digits = []
            for _ in range(n):
                c, x = divmod(c, k)
                digits.append(x)
            expected.append(tuple(digits[::-1]))
        patterns = marg.patterns()
        assert patterns == expected and all(type(x) is int for x in patterns[-1])
        for positions in (range(3), range(n), rng.integers(0, n, 5), rng.integers(0, n, n + 3),
                          [n - 1, 0, n - 1, 2]):
            positions = list(positions)
            p = len(positions)
            sub = marg.sub_codes(positions)
            assert sub.dtype == _code_dtype(k, p)
            assert sub.tolist() == [sum(d[a] * k ** (p - 1 - i) for i, a in enumerate(positions))
                                    for d in expected]
        weights = np.array([k ** a for a in rng.permutation(n).tolist()], dtype=_code_dtype(k, n))
        placed = _place((None, marg.codes, n), k, weights)
        assert placed[1].tolist() == [sum(x * y for x, y in zip(d, weights.tolist()))
                                      for d in expected]

    @pytest.mark.parametrize("n,dtype", [(62, np.int64), (63, object)])
    def test_code_dtype_at_two_to_the_63(self, n, dtype, coarsened_cycle, flip03):
        # 2^62 codes fit int64; 2^63 of them need exact ints, at every site
        assert _code_dtype(2, n) is dtype
        codes = _encode([np.ones(3, dtype=np.int64)] * n, 2, n)
        assert codes.dtype == dtype and codes.tolist() == [2 ** n - 1] * 3
        table = (np.ones((2, 1)), np.arange(2), n - 1)
        assert _join([table, (np.ones((2, 1)), np.arange(2), 1)], 2, n)[1].dtype == dtype
        dom = ball(G2, 5)[:n]  # the words of length 3 or less, and some of length 4
        for src in (coarsened_cycle, empirical_source(flip03, 4, seed=3, count=40)):
            marg = src.ball_marginal(dom)
            assert len(marg.domain) == n and marg.codes.dtype == dtype
            assert marg.sub_codes(range(n)).dtype == dtype

    def test_empirical_codes_from_sample_columns(self, wsf2):
        dom, rows = sample_indices(wsf2, 3, seed=6, count=300)
        before = rows.copy()
        src = EmpiricalSource(dom, wsf2.states, rows, G2)
        for sub in (ball(G2, 3), ball_domain(G2, 1), ball(G2, 3)[5::4]):
            marg = src.ball_marginal(sub)
            col = [dom.index(x) for x in marg.domain]
            n = len(col)
            counts = Counter(sum(int(r[c]) * 4 ** (n - 1 - a) for a, c in enumerate(col))
                             for r in rows.tolist())
            assert marg.codes.dtype == (np.int64 if 4 ** n < 2 ** 63 else object)
            assert marg.codes.tolist() == sorted(counts)
            assert marg.masses.tolist() == [counts[c] / 300 for c in sorted(counts)]
        np.testing.assert_array_equal(rows, before)  # the sample table is left as drawn


class TestSamplerOracle:
    """Seeded draws against the row-major oracle: same shape, dtype and values."""

    @settings(max_examples=60, deadline=None)
    @given(kind=st.sampled_from(["group", "semigroup"]),
           rank=st.integers(min_value=1, max_value=3),
           k=st.integers(min_value=1, max_value=6),
           radius=st.integers(min_value=0, max_value=3),
           count=st.sampled_from([0, 1]) | st.integers(min_value=2, max_value=400),
           seed=st.integers(min_value=0, max_value=2 ** 31 - 1),
           n_perms=st.integers(min_value=0, max_value=3))
    @example(kind="group", rank=2, k=1, radius=2, count=300, seed=5, n_perms=0)
    @example(kind="semigroup", rank=3, k=6, radius=3, count=0, seed=6, n_perms=3)
    def test_sinkhorn_systems(self, kind, rank, k, radius, count, seed, n_perms):
        ts = sinkhorn_system(GroupSpec(rank, kind), k, seed, n_perms)
        self._check(ts, radius, seed, count)

    @pytest.mark.parametrize("ts", [flip_system(2, 0.3), wsf_system(2), matching_system(2),
                                    wsf_system(3), semigroup_example()],
                             ids=["flip03", "wsf2", "matching2", "wsf3", "semigroup"])
    @pytest.mark.parametrize("radius", [0, 1, 2, 3])
    def test_builtin_systems(self, ts, radius):
        for count in (0, 1, 7, 300):
            self._check(ts, radius, 20260810 + count, count)

    @pytest.mark.parametrize("ts,digest", [
        (flip_system(2, 0.3), "75b6c9bb1ffe3e5f67305e289af56204d1d3d9b9134d86d5489eb4e12cd82fa7"),
        (wsf_system(2), "8078d4015fb8d2870710fbf1505b4dc6fbde70c4ac81464edc843e5ff8dbcb61"),
        (matching_system(2), "b63df0c13802ba534c1aa1830b2125032718dc3f1ddab63f4b2aa730dc346e66"),
        (semigroup_example(), "dbfb4b9bf17f0c68dd92c15c840f0b3872ff3d39e8283cc00b3f08c6074c00b1"),
    ], ids=["flip03", "wsf2", "matching2", "semigroup"])
    def test_draws_pinned(self, ts, digest):
        # every built-in's last cumulative column is 1: the draws of all K compares
        _, rows = sample_indices(ts, 3, 20261018, 500)
        assert hashlib.sha256(np.ascontiguousarray(rows).tobytes()).hexdigest() == digest

    @pytest.mark.parametrize("k", [256, 300])
    def test_states_past_uint8_match_the_oracle(self, k):
        # the compare counts reach K - 1 >= 255, and 256 before a clamp: their
        # accumulator must be wider than uint8
        ts = bernoulli_system(G2, np.full(k, 1.0 / k))
        self._check(ts, 2, 20261019, 400)
        assert sample_indices(ts, 2, 20261019, 400)[1].max() == k - 1

    def test_last_column_below_one_is_kept(self, monkeypatch):
        # row 0 sums to 1 - 1e-15 and its cumulative sums are not monotone:
        # u just below 1 passes its last compare and not the one before it
        spec = GroupSpec(1, "semigroup")
        row = [0.6, 0.4 + 1e-10, -1e-10 - 1e-15]
        ts = TransitionSystem(spec, (0, 1, 2), np.array([0.6, 0.4, 0.0]),
                              {1: np.array([row, [0.6, 0.4, 0.0], [0.6, 0.4, 0.0]])})
        assert validate(ts) == [] and np.cumsum(row)[-1] < 1.0

        class Uniforms:  # numpy's choice; u = 0 first (root state 0), then 1 - 2^-53
            drawn = False

            def choice(self, k, size, p):
                cdf = np.cumsum(p)
                cdf /= cdf[-1]
                return cdf.searchsorted(self.random(size), side="right")

            def random(self, count):
                u = np.full(count, 1.0 - 2.0 ** -53 if self.drawn else 0.0)
                self.drawn = True
                return u
        monkeypatch.setattr(np.random, "default_rng", lambda seed: Uniforms())
        _, rows = sample_indices(ts, 2, seed=0, count=4)
        pi, mats = as_lists(ts)
        np.testing.assert_array_equal(rows, oracle_sample_rows(pi, mats, 1, 2, 0, 4, False))
        assert rows.tolist() == [[0, 2, 1]] * 4  # the kept compare makes state 2

    def test_negative_pi_entry_within_tol_is_drawn(self, monkeypatch):
        # pi's last entry is -1e-12, within the validation tolerance: its
        # cumulative sums (0.5, 1 + 1e-12, 1) are not monotone, so the root
        # is u >= 0.5 and the last state is never drawn
        spec = GroupSpec(1, "semigroup")
        row = [0.5, 0.5, 0.0]
        ts = TransitionSystem(spec, (0, 1, 2), np.array([0.5, 0.5 + 1e-12, -1e-12]),
                              {1: np.array([row, row, row])})
        assert validate(ts) == []

        class Uniforms:
            def random(self, count):
                return np.array([0.0, 0.25, 0.5 - 2.0 ** -54, 0.5, 0.75, 1.0 - 2.0 ** -53])
        monkeypatch.setattr(np.random, "default_rng", lambda seed: Uniforms())
        _, rows = sample_indices(ts, 0, seed=0, count=6)
        assert rows.tolist() == [[0], [0], [0], [1], [1], [1]]

    @staticmethod
    def _check(ts, radius, seed, count):
        pi, mats = as_lists(ts)
        dom, rows = sample_indices(ts, radius, seed, count)
        expected = oracle_sample_rows(pi, mats, ts.spec.rank, radius, seed, count,
                                      ts.spec.is_group)
        assert [x.letters for x in dom] == oracle_ball(ts.spec.rank, radius,
                                                        ts.spec.is_group)
        assert rows.shape == expected.shape and rows.dtype == expected.dtype
        np.testing.assert_array_equal(rows, expected)


class TestInputRefusals:
    """Each malformed input is refused with its own exception and message."""

    def test_zero_mass_dropped(self):
        marg = BallMarginal([IDENTITY], (0, 1), np.array([0, 1]), np.array([0.0, 1.0]))
        assert marg.codes.tolist() == [1] and marg.masses.tolist() == [1.0]

    def test_marginalize_refusals(self, flip03):
        marg = MarkovSource(flip03).ball_marginal(ball(G2, 1))
        with pytest.raises(ValueError, match="subdomain is not contained in the domain"):
            marg.marginalize([IDENTITY, w("ab")])
        with pytest.raises(ValueError, match="domain must be nonempty"):
            marg.marginalize([])

    def test_blocked_join_refused_past_the_limit(self, monkeypatch):
        from freemarkov import measure
        monkeypatch.setattr(measure, "SPARSE_LIMIT", 4)
        table = (np.ones((3, 2)), np.arange(3), 1)
        # 9 pairs, formed one row of the first table at a time: 3, then 6 > 4
        with pytest.raises(CapabilityError,
                           match="support exceeds 4 patterns on a 7-vertex hull") as exc:
            measure._join([table, table], 3, 7)
        assert (exc.value.needed, exc.value.limit) == (6, 4)

    @pytest.mark.parametrize("kp,wa,wb", [(3, 2, 1), (2, 40, 30)], ids=["int64", "object"])
    def test_blocked_join_is_the_one_block_join(self, kp, wa, wb, monkeypatch):
        # 30 pairs past a limit of 12, formed 2 rows of the first table at a
        # time; the 10 nonzero rows stay within it
        from freemarkov import measure
        ta = np.eye(3)[[0, 1, 2, 0, 1, 2]] * np.arange(1, 7)[:, None]
        tb = np.eye(3)[[0, 0, 1, 1, 2]] * np.arange(1, 6)[:, None]
        ca = np.arange(6) * (kp ** wa // 7)  # ascending codes below kp**wa
        cb = np.arange(5) * (kp ** wb // 6)
        for a, b in (((ta, ca, wa), (tb, cb, wb)), ((ta, None, wa), (tb, None, wb))):
            whole = _join([a, b], kp, 9)
            monkeypatch.setattr(measure, "SPARSE_LIMIT", 12)
            blocked = _join([a, b], kp, 9)
            monkeypatch.undo()
            assert len(whole[0]) == 10 and whole[2] == blocked[2] == wa + wb
            assert whole[0].tobytes() == blocked[0].tobytes()
            if a[1] is None:
                assert whole[1] is None and blocked[1] is None
                continue
            assert whole[1].dtype == blocked[1].dtype == _code_dtype(kp, wa + wb)
            assert whole[1].tolist() == blocked[1].tolist()

    def test_join_of_an_empty_table(self):
        table, empty = (np.ones((3, 2)), np.arange(3), 1), (np.ones((0, 2)), np.arange(0), 1)
        for a, b in ((empty, table), (table, empty), (empty, empty)):
            rows, codes, width = _join([a, b], 3, 7)
            assert rows.shape == (0, 2) and codes.shape == (0,) and width == 2

    @staticmethod
    def _pairwise(pieces, kp, hull_size, head=None):
        # the reference: one two-table join after another, zero rows dropped
        # after each, each child piece on the right, then the head on the left
        table = pieces[0] if pieces else head
        for piece in pieces[1:]:
            table = _join([table, piece], kp, hull_size)
        return table if head is None or not pieces else _join([head, table], kp, hull_size)

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n_pieces=st.integers(1, 4),
           own=st.booleans(), coded=st.booleans(), limit=st.integers(1, 200))
    def test_class_join_is_the_pairwise_fold(self, seed, n_pieces, own, coded, limit):
        # tables with zero rows, under a patched limit, the emission head
        # joined first: the rows, codes and width of the fold with the head
        # joined last wherever neither refuses, and the refusal of the fold
        # in the joined order where a partial product passes the limit
        from freemarkov import measure
        rng = np.random.default_rng(seed)
        k, kp = 3, 2
        pieces = []
        for _ in range(n_pieces):
            rows = rng.integers(0, 7)
            width = int(rng.integers(1, 3))
            table = rng.random((rows, k)) * (rng.random((rows, k)) < 0.5)
            codes = np.sort(rng.choice(kp ** width, size=rows)) if coded else None
            pieces.append((table, codes, width))
        head = (np.eye(kp)[[0, 1, 1]].T, np.arange(kp) if coded else None, 1) if own else None
        first = [head] * own + pieces  # the order the sum-product joins them in
        # the rows of each product the fold forms, before its zero rows go
        sizes = list(itertools.accumulate((len(t[0]) for t in first), operator.mul))
        outcomes = []
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(measure, "SPARSE_LIMIT", limit)
            for join in (lambda: self._pairwise(first, kp, 9), lambda: _join(first, kp, 9),
                         lambda: self._pairwise(pieces, kp, 9, head)):
                try:
                    outcomes.append(join())
                except CapabilityError as refusal:
                    outcomes.append(refusal)
        fold, got, last = outcomes
        if isinstance(fold, CapabilityError):
            assert max(sizes[1:]) > limit
            assert isinstance(got, CapabilityError)
            assert (str(got), got.needed, got.limit) == (str(fold), fold.needed, fold.limit)
            return
        assert not isinstance(got, CapabilityError)  # no refusal where the fold has none
        for want in (fold,) if isinstance(last, CapabilityError) else (fold, last):
            assert got[0].shape == want[0].shape and got[0].tobytes() == want[0].tobytes()
            assert got[2] == want[2]
            if coded:
                assert got[1].dtype == want[1].dtype and got[1].tolist() == want[1].tolist()
            else:
                assert got[1] is None and want[1] is None

    def test_class_join_refuses_where_a_partial_product_passes(self, monkeypatch):
        # 4 x 3 rows fit a limit of 12 and are kept whole; times 3 more they
        # would not, so the 3 zero rows go first, and the 9 rows left are
        # joined 4 at a time: 12 pairs, then 24, refused where the pairwise
        # fold refuses (with the zero rows kept the blocks would hold 3, 15 and 27)
        from freemarkov import measure
        monkeypatch.setattr(measure, "SPARSE_LIMIT", 12)
        a = (np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]), np.arange(4), 2)
        b = (np.ones((3, 2)), np.arange(3), 2)
        refusals = []
        for join in (lambda: self._pairwise([a, b, b], 4, 7), lambda: _join([a, b, b], 4, 7)):
            with pytest.raises(CapabilityError) as refusal:
                join()
            refusals.append((str(refusal.value), refusal.value.needed, refusal.value.limit))
        assert refusals[0] == refusals[1] == (
            "support exceeds 12 patterns on a 7-vertex hull", 24, 12)
        # 4 x 3 x 1 rows fit the limit whole: no refusal, and the fold's table
        c = (np.ones((1, 2)), np.arange(1), 1)
        got, want = _join([a, b, c], 4, 7), self._pairwise([a, b, c], 4, 7)
        assert len(got[0]) == 9 and got[0].tobytes() == want[0].tobytes()
        assert got[1].tolist() == want[1].tolist() and got[2] == want[2] == 5

    def test_short_state_map_refused(self, flip03):
        with pytest.raises(ValueError, match="state_map has 1 entries for 2 states"):
            coarsen(flip03, [0])

    def test_empirical_rows_refused(self):
        b1 = ball(G2, 1)
        with pytest.raises(ValueError, match=r"index rows have shape \(2, 4\), "
                                             r"expected \(N, 5\)"):
            EmpiricalSource(b1, (0, 1), np.zeros((2, 4)), G2)
        with pytest.raises(ValueError, match="state index out of range in sample rows"):
            EmpiricalSource(b1, (0, 1), np.full((1, 5), 2), G2)
        with pytest.raises(ValueError, match="need at least one sample"):
            EmpiricalSource(b1, (0, 1), np.zeros((0, 5)), G2)
        # a cast to int64 would read 0.7 as state 0
        for rows in ([[0.7]], [[math.nan]], [["1"]]):
            with pytest.raises(ValueError, match="sample rows must hold integer state indices"):
                EmpiricalSource([IDENTITY], (0, 1), rows, G2)
        with pytest.raises(ValueError, match="sample rows must hold integer state indices"):
            EmpiricalSource(b1, (0, 1), [[0, 1, 0, 0.5, 1]], G2)
        assert EmpiricalSource(b1, (0, 1), np.ones((1, 5)), G2).rows.dtype == np.int64

    def test_approximation_of_a_non_invariant_sample_refused(self):
        # x_a = 1 in the one sample, a state x_e never takes: the pair pattern
        # (x_e, x_a) restricts at a to no superstate of B(e,0)
        src = EmpiricalSource(ball(G2, 1), (0, 1), np.array([[0, 1, 0, 0, 0]]), G2)
        with pytest.raises(ValueError, match="restricts to no superstate; "
                                             "the source is not shift-invariant"):
            markov_approximation(src, 0)

    def test_negative_depth_refused(self, flip03):
        with pytest.raises(ValueError, match="depth must be nonnegative, got -1"):
            big_F(MarkovSource(flip03), -1)
