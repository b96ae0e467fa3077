import math

import numpy as np
import pytest

from freemarkov.entropy import (EntropyReport, big_F, big_F_star,
                                binary_entropy, conditional_entropy, f_markov,
                                f_sequence, shannon)
from freemarkov.errors import CapabilityError
from freemarkov.measure import CoarsenedSource, MarkovSource, tree_entropy
from freemarkov.transition import (TransitionSystem, bernoulli_system,
                                   flip_system, matching_system,
                                   permutation_system, product_system,
                                   wsf_system)
from freemarkov.verify import semigroup_example
from freemarkov.words import GroupSpec, ball

from oracles import as_lists, oracle_big_F

G2 = GroupSpec(2, "group")
LOG2, LOG3 = math.log(2), math.log(3)


def sinkhorn_system(k, seed, spec=G2):
    """Random invariant system: Sinkhorn-scale a positive matrix to margins pi.

    Each positive generator gets a joint J with row and column sums pi;
    P[s] = J / pi and, for groups, P[s^-1] = J^T / pi.
    """
    rng = np.random.default_rng(seed)
    pi = rng.uniform(0.5, 1.5, size=k)
    pi /= pi.sum()
    mats = {}
    for s in spec.positive_generators():
        j = rng.uniform(0.1, 1.0, size=(k, k))
        for _ in range(10_000):
            j *= (pi / j.sum(axis=1))[:, None]
            j *= pi / j.sum(axis=0)
            if np.abs(j.sum(axis=1) - pi).max() < 1e-15:
                break
        mats[s] = j / pi[:, None]
        if spec.is_group:
            mats[-s] = j.T / pi[:, None]
    return TransitionSystem(spec, tuple(range(k)), pi, mats)


class TestShannon:
    def test_point_mass(self):
        assert shannon([1.0, 0.0, 0.0]) == 0.0

    def test_uniform_four(self):
        assert abs(shannon([0.25] * 4) - math.log(4)) < 1e-15

    def test_half_quarter_quarter(self):
        assert abs(shannon([0.5, 0.25, 0.25]) - 1.5 * LOG2) < 1e-15

    def test_negative_entry_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            shannon([1.1, -0.1])

    def test_unnormalized_rejected(self):
        # the mass gate of a marginal's masses: a total off 1 by more than 1e-9
        for dist in ([0.25, 0.25], [0.5, 0.5 + 5e-7], []):
            with pytest.raises(ValueError, match="sum"):
                shannon(dist)

    @pytest.mark.parametrize("dist", [[math.nan, 1.0], [math.inf, 0.0], [-math.inf, 1.0]])
    def test_non_finite_rejected(self, dist):
        with pytest.raises(ValueError, match="non-finite"):
            shannon(dist)


class TestConditionalEntropy:
    def test_independent_joint(self):
        a, b = np.array([0.3, 0.7]), np.array([0.6, 0.4])
        assert abs(conditional_entropy(np.outer(a, b)) - shannon(a)) < 1e-14

    def test_function_of_condition(self):
        joint = np.array([[0.6, 0.0], [0.0, 0.4]])
        assert abs(conditional_entropy(joint)) < 1e-14

    def test_chain_rule_value(self):
        joint = np.array([[0.5, 0.0], [0.25, 0.25]])
        # H(joint) = 1.5 log 2, H(columns) = H(0.75, 0.25)
        expect = 1.5 * LOG2 - shannon([0.75, 0.25])
        assert abs(expect - 0.4773856262211097) < 1e-12
        assert abs(conditional_entropy(joint) - expect) < 1e-14

    def test_bounds(self):
        joint = np.array([[0.4, 0.1], [0.2, 0.3]])
        h = conditional_entropy(joint)
        assert 0.0 <= h <= shannon(joint.sum(axis=1))


class TestBigF:
    def test_flip_depth_zero_formula(self):
        for eps in (0.0, 0.2, 0.5):
            rep = big_F(MarkovSource(flip_system(2, eps)), 0)
            expect = (1 - 2) * LOG2 + 2 * binary_entropy(eps)
            assert abs(rep.big_f - expect) < 1e-12

    @pytest.mark.parametrize("builder,n_max", [
        (lambda: flip_system(2, 0.3), 2), (lambda: wsf_system(2), 1),
        (lambda: matching_system(2), 1),
        (lambda: bernoulli_system(G2, [0.3, 0.7]), 1),
    ])
    def test_constant_across_depths_for_markov(self, builder, n_max):
        ts = builder()
        src = MarkovSource(ts)
        vals = [big_F(src, n).big_f for n in range(n_max + 1)]
        assert max(vals) - min(vals) < 1e-9

    def test_bernoulli_value_is_entropy(self):
        p = [0.3, 0.7]
        src = MarkovSource(bernoulli_system(G2, p))
        for n in (0, 1):
            assert abs(big_F(src, n).big_f - shannon(p)) < 1e-12

    def test_report_reconstructible(self, flip03):
        rep = big_F(MarkovSource(flip03), 1)
        rebuilt = G2.coefficient * rep.h_ball + sum(rep.pair_entropies)
        assert abs(rebuilt - rep.big_f) < 1e-15
        assert len(rep.pair_entropies) == 2

    def test_matches_independent_oracle(self, wsf2, coarsened_cycle):
        for ts, n_max in [(wsf2, 1), (sinkhorn_system(3, 11), 1),
                          (semigroup_example(), 2)]:
            pi, mats = as_lists(ts)
            for n in range(n_max + 1):
                lib = big_F(MarkovSource(ts), n).big_f
                oracle = oracle_big_F(pi, mats, 2, n, group=ts.spec.is_group)
                assert abs(lib - oracle) < 1e-9
        base = coarsened_cycle.base.ts
        pi, mats = as_lists(base)
        for n in (0, 1):
            lib = big_F(coarsened_cycle, n).big_f
            oracle = oracle_big_F(pi, mats, 2, n, coarsen_map=[0, 1, 1])
            assert abs(lib - oracle) < 1e-9

    @pytest.mark.parametrize("builder,n_max", [
        (lambda: wsf_system(2), 10), (lambda: wsf_system(3), 6),
        (semigroup_example, 13),
        (lambda: sinkhorn_system(3, 11), 7), (lambda: sinkhorn_system(4, 12), 6),
        (lambda: sinkhorn_system(5, 13), 6),
        (lambda: sinkhorn_system(4, 14, GroupSpec(2, "semigroup")), 10),
    ])
    def test_deep_markov_matches_closed_form(self, builder, n_max):
        # dense tables at shallow depth, merged edge counts past the guard
        ts = builder()
        src, f = MarkovSource(ts), f_markov(ts)
        for n in range(n_max + 1):
            assert abs(big_F(src, n).big_f - f) <= 1e-13

    def test_semigroup_markov_constant(self, semigroup_ts):
        src = MarkovSource(semigroup_ts)
        f = f_markov(semigroup_ts)
        for n in range(3):
            assert abs(big_F(src, n).big_f - f) < 1e-9

    def test_csv_row(self):
        rep = EntropyReport(n=1, h_ball=1.0, pair_entropies=(2.0, 3.0), big_f=2.0)
        assert EntropyReport.csv_header(2) == "n,H_ball,H_pair_s1,H_pair_s2,F,Fstar"
        assert rep.to_csv_row() == "1,1.0,2.0,3.0,2.0,"
        assert rep.to_csv_row(scale=2.0) == "1,2.0,4.0,6.0,4.0,"


class TestFMarkov:
    def test_wsf_value(self, wsf2):
        assert abs(f_markov(wsf2) - (3 * LOG3 - 3 * LOG2)) < 1e-12

    def test_matching_value(self, matching2):
        assert abs(f_markov(matching2) - (1.5 * LOG3 - math.log(4))) < 1e-12

    def test_wsf_general_rank_formula(self):
        for r in (2, 3):
            expect = ((1 - r) * math.log(2 * r) + (2 * r - 1) * math.log(2 * r - 1)
                      + (1 - r) * math.log(2 * r - 2))
            assert abs(f_markov(wsf_system(r)) - expect) < 1e-12

    def test_matching_general_rank_formula(self):
        for r in (2, 3):
            expect = (-(r - 1) * math.log(2 * r)
                      + (r - 0.5) * math.log(2 * r - 1))
            assert abs(f_markov(matching_system(r)) - expect) < 1e-12

    def test_flip_family_closed_form(self):
        # f = -log 2 + 2 H_b(eps) at rank 2, equal to log 2 at eps = 1/2
        for eps in (0.0, 0.1, 0.25, 0.5):
            expect = -LOG2 + 2 * binary_entropy(eps)
            assert abs(f_markov(flip_system(2, eps)) - expect) < 1e-12
        assert abs(f_markov(flip_system(2, 0.5)) - LOG2) < 1e-12

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_uniform_permutation_value(self, n):
        ts = permutation_system(G2, n, {1: tuple((i + 1) % n for i in range(n))})
        assert abs(f_markov(ts) - (1 - 2) * math.log(n)) < 1e-12

    def test_trivial_two_point_action(self):
        # identity permutations on 2 points: f = -log 2
        ts = permutation_system(G2, 2)
        assert abs(f_markov(ts) + LOG2) < 1e-12

    def test_product_additivity(self):
        a, b = flip_system(2, 0.2), flip_system(2, 0.7)
        assert abs(f_markov(product_system(a, b)) - f_markov(a) - f_markov(b)) < 1e-9

    def test_refuses_invalid_system(self):
        good = flip_system(2, 0.0)
        bad = TransitionSystem(good.spec, good.states, np.array([0.6, 0.4]),
                               dict(good.matrices))
        with pytest.raises(ValueError, match="validation"):
            f_markov(bad)
        f_markov(bad, validate_tol=None)  # explicit opt-out works


def _flip_with(pi=(0.5, 0.5), entry=None):
    """flip(0.3) with the given pi, and ``entry`` put at P[1][0, 0]."""
    good = flip_system(2, 0.3)
    mats = dict(good.matrices)
    if entry is not None:
        mats[1] = mats[1].copy()
        mats[1][0, 0] = entry
    return TransitionSystem(good.spec, good.states, np.array(pi), mats)


class TestRouteIndependence:
    """The grid (shallow balls) and the closed form (deep balls) refuse alike."""

    @pytest.mark.parametrize("ts,message", [
        (_flip_with(pi=(math.nan, 1.0)), "non-finite pattern probability"),
        (_flip_with(entry=math.nan), "non-finite pattern probability"),
        (_flip_with(pi=(0.5 + 1e-7, 0.5 + 1e-7)), r"pattern probabilities sum to 1\.00000\d+, not 1"),
    ], ids=["nan_pi", "nan_entry", "heavy_pi"])
    def test_every_route_refuses(self, ts, message):
        src = MarkovSource(ts)
        refusals = []
        for n in range(6):
            with pytest.raises(ValueError, match=message) as info:
                big_F(src, n)
            refusals.append(str(info.value))
        for refuse in (lambda: tree_entropy(ts, ball(G2, 2)),
                       lambda: f_markov(ts, validate_tol=None)):
            with pytest.raises(ValueError, match=message):
                refuse()
        if "non-finite" in message:  # the one message at every depth
            assert set(refusals) == {message}

    def test_closed_form_gate_outlasts_a_loose_validation(self):
        ts = _flip_with(pi=(0.5 + 1e-7, 0.5 + 1e-7))
        with pytest.raises(ValueError, match="pattern probabilities sum to"):
            f_markov(ts, validate_tol=1e-6)


class TestFSequence:
    def test_single_report(self, flip03):
        assert len(f_sequence(MarkovSource(flip03), 0)) == 1

    def test_negative_depth_refused(self, flip03):
        with pytest.raises(ValueError, match="depth must be nonnegative"):
            f_sequence(MarkovSource(flip03), -1)

    def test_ball_past_the_limit_refused_before_any_row(self, wsf2):
        asked = []

        class Counting(MarkovSource):
            def entropy_sum(self, terms):
                asked.append(terms)
                return super().entropy_sum(terms)

        with pytest.raises(CapabilityError, match="more than") as exc:
            f_sequence(Counting(wsf2), 18)
        assert exc.value.needed == 2 * 3 ** 18 - 1 and asked == []

    def test_markov_constant(self, flip03):
        seq = [r.big_f for r in f_sequence(MarkovSource(flip03), 2)]
        assert max(seq) - min(seq) < 1e-9

    def test_coarsened_strict_drop_then_flat(self, coarsened_cycle):
        seq = [r.big_f for r in f_sequence(coarsened_cycle, 2)]
        assert seq[0] - seq[1] > 1e-3
        assert abs(seq[1] - seq[2]) < 1e-9

    @pytest.mark.parametrize("src_builder", [
        lambda: MarkovSource(flip_system(2, 0.3)),
        lambda: MarkovSource(wsf_system(2)),
        lambda: CoarsenedSource(permutation_system(
            G2, 3, {1: (1, 2, 0), 2: (1, 2, 0)}), [0, 1, 1]),
    ])
    def test_nonincreasing(self, src_builder):
        src = src_builder()
        n_max = 2 if len(src.states) <= 2 else 1
        seq = [r.big_f for r in f_sequence(src, n_max)]
        for earlier, later in zip(seq, seq[1:]):
            assert later <= earlier + 1e-10


class TestBigFStar:
    def test_markov_equals_big_f(self):
        src = MarkovSource(flip_system(2, 0.2))
        f0 = big_F(src, 0).big_f
        for m in (1, 2, 3):
            assert abs(big_F_star(src, 0, m) - f0) < 1e-9

    def test_bernoulli_is_entropy(self):
        p = [0.3, 0.7]
        src = MarkovSource(bernoulli_system(G2, p))
        for m in (1, 2, 4):
            assert abs(big_F_star(src, 0, m) - shannon(p)) < 1e-12

    def test_coarsened_nonincreasing_in_m(self, coarsened_cycle):
        vals = [big_F_star(coarsened_cycle, 0, m) for m in (1, 2, 3)]
        for earlier, later in zip(vals, vals[1:]):
            assert later <= earlier + 1e-12

    def test_upper_bounds_f(self, coarsened_cycle):
        # F* at n=0 bounds the eventual f value (-log 3 for this source)
        assert big_F_star(coarsened_cycle, 0, 3) >= -LOG3 - 1e-12

    def test_configuration_guard(self):
        src = MarkovSource(wsf_system(3))  # 6 states
        with pytest.raises(CapabilityError, match="guard"):
            big_F_star(src, 1, 4)

    def test_m_must_be_positive(self, flip03):
        with pytest.raises(ValueError):
            big_F_star(MarkovSource(flip03), 0, 0)


class TestDepthCapability:
    def test_empirical_source_within_depth(self, flip03):
        from freemarkov.measure import empirical_source
        src = empirical_source(flip03, 2, seed=1, count=5000)
        rep = big_F(src, 1)  # pair domains live inside B(e,2)
        assert abs(rep.big_f - f_markov(flip03)) < 0.1

    def test_empirical_source_beyond_depth(self, flip03):
        from freemarkov.measure import empirical_source
        src = empirical_source(flip03, 1, seed=1, count=100)
        with pytest.raises(CapabilityError):
            big_F(src, 1)  # needs coordinates outside the sampled ball
