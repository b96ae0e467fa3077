import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freemarkov.approx import (approximation_sequence, markov_approximation,
                               markov_fixed_point_gap, pattern_label)
from freemarkov.entropy import big_F, big_F_star, f_markov, f_sequence
from freemarkov.errors import CapabilityError
from freemarkov.measure import CoarsenedSource, MarkovSource, coarsen, pair_stats
from freemarkov.transition import (TransitionSystem, bernoulli_system,
                                   flip_system, matching_system, product_system,
                                   validate, wsf_system)
from freemarkov.verify import (EXACT_TOL, STRICT_DROP, cycle_coarsening,
                               cycle_system)
from freemarkov.words import GroupSpec, ball, ball_domain, ball_size

from oracles import as_lists, oracle_pushdown
from systems import sinkhorn_system

G2 = GroupSpec(2, "group")


def l1_gap(pi_a, joints_a, pi_b, joints_b) -> float:
    """Summed absolute gap of two single-site vectors and of their pair joints."""
    return float(np.abs(np.subtract(pi_a, pi_b)).sum()
                 + sum(np.abs(np.subtract(joints_a[s], joints_b[s])).sum() for s in joints_b))


class TestDepthZero:
    @pytest.mark.parametrize("builder", [
        lambda: flip_system(2, 0.3), lambda: wsf_system(2),
        lambda: matching_system(2), lambda: bernoulli_system(G2, [0.3, 0.7]),
    ])
    def test_reproduces_markov_system(self, builder):
        ts = builder()
        approx = markov_approximation(MarkovSource(ts), 0)
        assert approx.inner.states == tuple(str(s) for s in ts.states)
        np.testing.assert_allclose(approx.inner.pi, ts.pi, atol=1e-14)
        for s in ts.spec.generators():
            np.testing.assert_allclose(approx.inner.matrices[s],
                                       ts.matrices[s], atol=1e-14)

    def test_semigroup(self, semigroup_ts):
        approx = markov_approximation(MarkovSource(semigroup_ts), 0)
        np.testing.assert_allclose(approx.inner.pi, semigroup_ts.pi, atol=1e-14)
        assert validate(approx.inner, 1e-9) == []


class TestMatchedStatistics:
    @pytest.mark.parametrize("m", [0, 1])
    def test_fixed_point_d1_zero(self, flip03, m):
        assert markov_fixed_point_gap(flip03, m) < 1e-12

    def test_fixed_point_wsf(self, wsf2):
        assert markov_fixed_point_gap(wsf2, 0) < 1e-12

    @settings(max_examples=60, deadline=None)
    @given(kind=st.sampled_from(["group", "semigroup"]),
           rank=st.integers(min_value=1, max_value=3),
           k=st.integers(min_value=2, max_value=5),
           seed=st.integers(min_value=0, max_value=2 ** 31 - 1))
    def test_fixed_point_random_markov(self, kind, rank, k, seed):
        spec = GroupSpec(rank, kind)
        ts = sinkhorn_system(spec, k, seed)
        # depth 1 only where its superstates, patterns on B(e, 1), stay few
        depths = [0, 1] if k ** ball_size(spec, 1) <= 2 ** 8 else [0]
        for m in depths:
            assert markov_fixed_point_gap(ts, m) <= EXACT_TOL
            assert markov_fixed_point_gap(MarkovSource(ts), m) <= EXACT_TOL

    def test_fixed_point_lumpable_coarsening(self):
        # flip x flip read through XOR is a hidden source that is Markov
        src = coarsen(product_system(flip_system(2, 0.3), flip_system(2, 0.1)),
                      [0, 1, 1, 0])
        assert markov_fixed_point_gap(src, 0) <= EXACT_TOL

    def test_fixed_point_gap_coarsened_cycle(self, coarsened_cycle):
        # its B(e, 1) pattern remembers more than the root's observed state
        assert markov_fixed_point_gap(coarsened_cycle, 0) > STRICT_DROP

    def test_approximation_validates(self, coarsened_cycle):
        for m in (0, 1):
            approx = markov_approximation(coarsened_cycle, m)
            assert validate(approx.inner, 1e-9) == []

    def test_base_level_stats_recover_source(self, coarsened_cycle, flip03):
        for src in (coarsened_cycle, MarkovSource(flip03)):
            approx = markov_approximation(src, 1)
            pi, joints = oracle_pushdown([pat[0] for pat in approx.patterns],
                                         len(src.states), *as_lists(approx.inner))
            stats = pair_stats(src)
            assert l1_gap(pi, joints, stats.pi, stats.joints) < 1e-12

    def test_idempotent_at_statistics_level(self, coarsened_cycle):
        first = markov_approximation(coarsened_cycle, 1).inner
        second = markov_approximation(MarkovSource(first), 0).inner
        a, b = pair_stats(first), pair_stats(second)
        assert l1_gap(a.pi, a.joints, b.pi, b.joints) < 1e-12


class TestCrossValidation:
    def test_coarsened_cycle(self, coarsened_cycle):
        for m in (0, 1):
            fm = f_markov(markov_approximation(coarsened_cycle, m).inner)
            assert abs(fm - big_F(coarsened_cycle, m).big_f) < 1e-9

    def test_markov_sources_constant(self, flip03):
        src = MarkovSource(flip03)
        f = f_markov(flip03)
        for m, val in approximation_sequence(src, 1):
            assert abs(val - f) < 1e-9

    def test_sequence_equals_f_sequence(self, coarsened_cycle):
        approx_vals = approximation_sequence(coarsened_cycle, 1)
        f_vals = [r.big_f for r in f_sequence(coarsened_cycle, 1)]
        for (m, val), expect in zip(approx_vals, f_vals):
            assert abs(val - expect) < 1e-9

    def test_monotone(self, coarsened_cycle):
        vals = [v for _, v in approximation_sequence(coarsened_cycle, 1)]
        assert vals[1] <= vals[0] + 1e-10

    def test_depth_zero_only(self, coarsened_cycle):
        seq = approximation_sequence(coarsened_cycle, 0)
        assert len(seq) == 1 and seq[0][0] == 0

    def test_negative_depth_refused_as_f_sequence_refuses(self, coarsened_cycle):
        from freemarkov.verify import check_approx_cross_validation
        with pytest.raises(ValueError, match="depth must be nonnegative, got -1") as want:
            f_sequence(coarsened_cycle, -1)
        for call in (approximation_sequence, check_approx_cross_validation):
            with pytest.raises(ValueError) as got:
                call(coarsened_cycle, -1)
            assert str(got.value) == str(want.value)
        # a non-integer depth is named, not sized as a ball or passed to range()
        for depth in (float("nan"), float("inf"), 2.0, 2.5):
            for call in (f_sequence, approximation_sequence, check_approx_cross_validation):
                with pytest.raises(TypeError, match=f"^depth must be an integer, got {depth!r}$"):
                    call(coarsened_cycle, depth)


    def test_single_depth_named_as_the_sequences_name_it(self, coarsened_cycle):
        # big_F, big_F_star and markov_approximation read their depth through
        # the same check as f_sequence and approximation_sequence
        for call in (big_F, big_F_star, markov_approximation):
            with pytest.raises(ValueError, match="^depth must be nonnegative, got -1$"):
                call(coarsened_cycle, -1)
            for depth in (float("nan"), float("inf"), 2.0, 2.5):
                with pytest.raises(TypeError, match=f"^depth must be an integer, got {depth!r}$"):
                    call(coarsened_cycle, depth)
        assert repr(big_F(coarsened_cycle, True)) == repr(big_F(coarsened_cycle, 1))
        assert type(markov_approximation(coarsened_cycle, True).m) is int


class TestStructure:
    def test_superstates_positive_mass_only(self):
        src = MarkovSource(flip_system(2, 0.0))
        approx = markov_approximation(src, 1)
        # frozen flip has only the two proper 2-colorings of the star alive
        assert approx.inner.n_states == 2
        assert set(approx.inner.states) == {"01111", "10000"}

    def test_pattern_labels(self):
        assert pattern_label((0, 1, 1)) == "011"
        assert pattern_label(("a", "A")) == "aA"
        assert pattern_label(("s0", "s1")) == "s0,s1"

    def test_domain_and_patterns_align(self, flip03):
        approx = markov_approximation(MarkovSource(flip03), 1)
        assert approx.domain == tuple(ball(G2, 1))
        assert len(approx.patterns) == approx.inner.n_states == 32

    def test_entry_guard(self):
        src = MarkovSource(wsf_system(2))  # 4^17 patterns at depth 2
        with pytest.raises(CapabilityError):
            markov_approximation(src, 2)

    def test_sparse_patterns_past_int64(self):
        # 3^53 patterns on B(e,3): codes overflow int64, yet 3 superstates,
        # each the root state shifted by the exponent sum of the word
        ts = cycle_system(2)
        approx = markov_approximation(MarkovSource(ts), 3)
        shifts = [sum(1 if l > 0 else -1 for l in word.letters)
                  for word in ball(G2, 3)]
        expected = sorted(tuple((r + d) % 3 for d in shifts) for r in range(3))
        assert approx.patterns == tuple(expected)
        assert approx.inner.states == tuple("".join(map(str, p)) for p in expected)
        assert abs(f_markov(approx.inner) - f_markov(ts)) < 1e-12

    def test_serializes_via_standard_format(self, coarsened_cycle):
        from freemarkov.transition import from_json_dict, to_json_dict
        approx = markov_approximation(coarsened_cycle, 1)
        back = from_json_dict(to_json_dict(approx.inner))
        assert back.states == approx.inner.states
        np.testing.assert_allclose(back.pi, approx.inner.pi)


def rebuilt_inverse_matrix(src, m, s):
    """P[s^-1] of the depth-m approximation from the pair marginal on
    B(e, m) ∪ B(e, m)·s^-1, its superstates read at the ball and at the
    translates and its joint one ``np.bincount``."""
    marg = src.ball_marginal(ball_domain(src.spec, m))
    n = marg.codes.size
    pair = ball_domain(src.spec, m, -s)
    mu = src.ball_marginal(pair)
    za = np.searchsorted(marg.codes, mu.sub_codes(range(len(marg.domain))))
    zb = np.searchsorted(marg.codes, mu.sub_codes(pair.translates))
    joint = np.bincount(za * n + zb, weights=mu.masses, minlength=n * n).reshape(n, n)
    return joint / marg.masses[:, None]


class TestInverseJoints:
    """On a group P[s^-1] conditions the transpose of the joint of s."""

    @settings(max_examples=30, deadline=None)
    @given(rank=st.integers(min_value=1, max_value=3),
           k=st.integers(min_value=2, max_value=3),  # 4^12 passes SPARSE_LIMIT
           seed=st.integers(min_value=0, max_value=2 ** 31 - 1))
    def test_matches_the_inverse_pair_marginal(self, rank, k, seed):
        spec = GroupSpec(rank)
        cmap = np.random.default_rng(seed).integers(0, k, size=k).tolist()
        src = coarsen(sinkhorn_system(spec, k, seed), cmap)
        n_obs = len(set(cmap))
        # depth 1 only where its superstates, patterns on B(e, 1), stay few
        for m in [0, 1] if n_obs ** ball_size(spec, 1) <= 2 ** 8 else [0]:
            inner = markov_approximation(src, m).inner
            mats = dict(inner.matrices)
            for s in spec.positive_generators():
                mats[-s] = rebuilt_inverse_matrix(src, m, s)
                assert np.abs(inner.matrices[-s] - mats[-s]).max() <= 1e-15
            rebuilt = TransitionSystem(spec, inner.states, inner.pi, mats)
            assert f_markov(inner) == f_markov(rebuilt)
            assert validate(inner) == []

    @pytest.mark.parametrize("spec", [GroupSpec(1), GroupSpec(3),
                                      GroupSpec(2, "semigroup")])
    def test_one_plus_r_marginals(self, spec, monkeypatch):
        src = coarsen(sinkhorn_system(spec, 3, 17), [0, 1, 1])
        calls = []
        read = CoarsenedSource.ball_marginal
        monkeypatch.setattr(CoarsenedSource, "ball_marginal",
                            lambda self, dom: calls.append(dom) or read(self, dom))
        markov_approximation(src, 1)
        assert len(calls) == 1 + spec.rank


class TestPinnedSystems:
    """Superstate systems pinned bit for bit: pi, each matrix in generator
    order and the state labels, hashed as the Word-product superstate
    reads and ``np.add.at`` joints wrote them, except that each rank-3
    group system's inverse joints are the transposes of its generators'."""

    @staticmethod
    def _digest(inner) -> str:
        h = hashlib.sha256(np.ascontiguousarray(inner.pi).tobytes())
        for s in inner.spec.generators():
            h.update(np.ascontiguousarray(inner.matrices[s]).tobytes())
        h.update("\n".join(inner.states).encode())
        return h.hexdigest()

    @pytest.mark.parametrize("make,m,digest", [
        (cycle_coarsening, 0, "11639d396e28c7331394ba5e65dcbf5d8b9c44295069c7f1741abd1066fe1933"),
        (cycle_coarsening, 1, "0e1ab1c61cad3f274bf670350b5592fd7f79469fecd76f68d796d9076d027573"),
        (cycle_coarsening, 2, "0b84107fe858293391c9037bf2d6aa5aef1800ba1b131ac9105e4c045af9f836"),
        (cycle_coarsening, 3, "c0636629f59a5b7ee36ddd1d69781eaaa807c527ad24357940220a5391b31591"),
        (lambda: coarsen(sinkhorn_system(GroupSpec(3), 3, 17), [0, 1, 1]), 0,
         "074706365a2da68c9f7ad0adacb841e037d6db872af57a37f04d2e845b3eca13"),
        (lambda: coarsen(sinkhorn_system(GroupSpec(3), 3, 17), [0, 1, 1]), 1,
         "a8cf6c4bedcbb178a87ed3583343a55bafeb36b811c4810ef27367ce5126621b"),
        (lambda: coarsen(sinkhorn_system(GroupSpec(2, "semigroup"), 3, 23), [0, 1, 1]), 0,
         "ba744571a3fad33103130113f623c718be00e3bef285db48007f13b63fce5d0a"),
        (lambda: coarsen(sinkhorn_system(GroupSpec(2, "semigroup"), 3, 23), [0, 1, 1]), 1,
         "635eeabd09b42d5dc994f2b1a222abc98bce724f8c3228716d288e467c2a9d53"),
        (lambda: coarsen(sinkhorn_system(GroupSpec(2, "semigroup"), 3, 23), [0, 1, 1]), 2,
         "17dcf8097f5d0aaaf811c6ceda585662ab2979155413d48ce2c9c88d53a02277"),
    ], ids=["cycle-0", "cycle-1", "cycle-2", "cycle-3", "rank3-0", "rank3-1",
            "semigroup-0", "semigroup-1", "semigroup-2"])
    def test_superstate_system_pinned(self, make, m, digest):
        assert self._digest(markov_approximation(make(), m).inner) == digest
