import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freemarkov.approx import (approximation_sequence, base_level_stats,
                               markov_approximation, markov_fixed_point_gap,
                               pattern_label)
from freemarkov.entropy import big_F, f_markov, f_sequence
from freemarkov.errors import CapabilityError
from freemarkov.measure import MarkovSource, coarsen, d1, pair_stats
from freemarkov.transition import (bernoulli_system, flip_system,
                                   matching_system, product_system, validate,
                                   wsf_system)
from freemarkov.verify import EXACT_TOL, STRICT_DROP, cycle_system
from freemarkov.words import GroupSpec, ball, ball_size

from test_entropy import sinkhorn_system

G2 = GroupSpec(2, "group")


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
        ts = sinkhorn_system(k, seed, spec)
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
            assert d1(base_level_stats(approx), pair_stats(src)) < 1e-12

    def test_idempotent_at_statistics_level(self, coarsened_cycle):
        first = markov_approximation(coarsened_cycle, 1).inner
        second = markov_approximation(MarkovSource(first), 0).inner
        assert d1(pair_stats(first), pair_stats(second)) < 1e-12


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
