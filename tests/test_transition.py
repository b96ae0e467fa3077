import json
import math

import numpy as np
import pytest

from freemarkov.entropy import f_markov
from freemarkov.errors import FormatError, InconsistentMarginalsError, StructuralError
from freemarkov.measure import MarkovSource, coarsen, empirical_source, pair_stats
from freemarkov.transition import (TransitionSystem, bernoulli_system,
                                   flip_system, from_json_dict,
                                   from_pair_marginals, matching_system,
                                   permutation_system, product_system,
                                   require_valid, to_json_dict, validate,
                                   wsf_system)
from freemarkov.words import GroupSpec, ball, ball_domain

G2 = GroupSpec(2, "group")
S2 = GroupSpec(2, "semigroup")


class TestValidate:
    def test_flip_is_valid(self):
        assert validate(flip_system(2, 0.3), 1e-12) == []

    def test_bernoulli_is_valid(self):
        assert validate(bernoulli_system(G2, [0.3, 0.7]), 1e-12) == []

    @pytest.mark.parametrize("r", [2, 3])
    def test_wsf_matching_valid(self, r):
        assert validate(wsf_system(r), 1e-12) == []
        assert validate(matching_system(r), 1e-12) == []

    @pytest.mark.parametrize("eps", [0.0, 0.1, 0.5, 1.0])
    def test_flip_grid_valid(self, eps):
        assert validate(flip_system(2, eps), 1e-12) == []

    def test_permutation_valid(self):
        ts = permutation_system(G2, 3, {1: (1, 2, 0), 2: (2, 0, 1)})
        assert validate(ts, 1e-12) == []

    def test_perturbed_pi_reports_steady_state(self):
        good = flip_system(2, 0.0)
        bad = TransitionSystem(good.spec, good.states, np.array([0.6, 0.4]),
                               dict(good.matrices))
        report = validate(bad, 1e-9)
        steady = [v for v in report if v.condition == "steady_state"]
        assert steady, report
        hit = [v for v in steady if v.where[1] == 0]
        assert hit and abs(hit[0].residual - 0.2) < 1e-12

    def test_broken_pair_condition(self):
        mats = {1: np.array([[0.9, 0.1], [0.5, 0.5]])}
        mats[-1] = mats[1].copy()  # correct inverse would be the pi-transpose
        mats[2] = np.array([[0.5, 0.5], [0.5, 0.5]])
        mats[-2] = mats[2].copy()
        pi = np.array([5 / 6, 1 / 6])
        ts = TransitionSystem(G2, (0, 1), pi, mats)
        conds = {v.condition for v in validate(ts)}
        assert "pair_consistency" in conds

    def test_nan_pi_reported(self):
        good = flip_system(2, 0.3)
        bad = TransitionSystem(good.spec, good.states, np.array([math.nan, 0.5]),
                               dict(good.matrices))
        report = validate(bad)
        assert [(v.condition, v.where) for v in report] == [("non_finite", (0,))]
        with pytest.raises(ValueError, match="non_finite"):
            f_markov(bad)

    def test_non_finite_matrix_entry_reported(self):
        mats = dict(flip_system(2, 0.3).matrices)
        mats[2] = np.array([[math.inf, 0.0], [0.5, math.nan]])
        ts = TransitionSystem(G2, (0, 1), np.array([0.5, 0.5]), mats)
        hits = [v.where for v in validate(ts) if v.condition == "non_finite"]
        assert hits == [(2, 0, 0), (2, 1, 1)]

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -1.0], ids=["nan", "inf", "negative"])
    def test_tolerance_must_be_finite_and_nonnegative(self, tol):
        # pi sums to 1.4: a NaN or infinite tolerance would pass it
        bad = bernoulli_system(G2, [0.3, 0.7])
        bad = TransitionSystem(G2, bad.states, np.array([0.7, 0.7]), dict(bad.matrices))
        for check in (lambda: validate(bad, tol), lambda: require_valid(bad, tol),
                      lambda: f_markov(bad, validate_tol=tol),
                      lambda: validate(flip_system(2, 0.3), tol)):
            with pytest.raises(ValueError, match="tolerance must be finite and nonnegative"):
                check()
        assert validate(flip_system(2, 0.3), 0.0) == validate(flip_system(2, 0.3)) == []

    def test_require_valid_keeps_one_default_verdict(self, monkeypatch):
        # at DEFAULT_TOL a system is validated once; another tolerance is
        # validated on every call, and both refuse with validate's report
        from freemarkov import transition
        calls, validate_once = [], transition.validate
        monkeypatch.setattr(transition, "validate",
                            lambda ts, tol: calls.append(tol) or validate_once(ts, tol))
        bad = bernoulli_system(G2, [0.3, 0.7])
        bad = TransitionSystem(G2, bad.states, np.array([0.7, 0.7]), dict(bad.matrices))
        for tol in (1e-9, 1e-9, 1e-3, 1e-3):
            with pytest.raises(ValueError) as refusal:
                require_valid(bad, tol)
            assert str(refusal.value) == (
                f"transition system fails validation at {tol:g}: pi_sum()=0.4, "
                "steady_state(-2, 0)=0.28, steady_state(-2, 1)=0.28, "
                "steady_state(-1, 0)=0.28, steady_state(-1, 1)=0.28 (+8 more)")
        assert calls == [1e-9, 1e-3, 1e-3]
        require_valid(flip_system(2, 0.3))

    def test_structural_error_is_distinct(self):
        with pytest.raises(StructuralError):
            TransitionSystem(G2, (0, 1), np.array([0.5, 0.5]),
                             {1: np.eye(2), -1: np.eye(2), 2: np.eye(2)})
        with pytest.raises(StructuralError):
            TransitionSystem(G2, (0, 1), np.array([1.0]),
                             {s: np.eye(2) for s in G2.generators()})


class TestBuiltins:
    def test_matching_forces_return(self, matching2):
        # row of state 'a' in P^a puts all mass on the inverse direction
        a = matching2.state_index("a")
        a_inv = matching2.state_index("A")
        row = matching2.matrices[1][a]
        assert row[a_inv] == 1.0 and row.sum() == 1.0

    def test_wsf_forbids_return(self, wsf2):
        a = wsf2.state_index("a")
        a_inv = wsf2.state_index("A")
        assert wsf2.matrices[1][a, a_inv] == 0.0

    def test_wsf_entry_values(self, wsf2):
        size = 4
        m = wsf2.matrices[1]
        vals = {round(float(x), 12) for x in np.unique(m)}
        expected = {0.0, round(1 / (size - 1), 12),
                    round((size - 2) / (size - 1) ** 2, 12)}
        assert vals == expected

    def test_flip_half_is_uniform_bernoulli(self):
        flip = flip_system(2, 0.5)
        bern = bernoulli_system(G2, [0.5, 0.5])
        for s in G2.generators():
            np.testing.assert_allclose(flip.matrices[s], bern.matrices[s])
        np.testing.assert_allclose(flip.pi, bern.pi)

    def test_low_rank_rejected(self):
        with pytest.raises(ValueError, match="rank"):
            wsf_system(1)
        with pytest.raises(ValueError, match="rank"):
            matching_system(1)

    def test_flip_eps_range(self):
        with pytest.raises(ValueError):
            flip_system(2, 1.5)

    @pytest.mark.parametrize("p", [[math.nan, 0.5], [math.inf, 0.0], [1.2, -0.2],
                                   [0.7, 0.7], [0.3, 0.3], [0.5, 0.5 + 2e-9]],
                             ids=["nan", "inf", "negative", "over", "under", "past_tol"])
    def test_bernoulli_p_refused(self, p):
        with pytest.raises(ValueError, match="p must be a probability vector"):
            bernoulli_system(G2, p)

    def test_bernoulli_p_within_tolerance(self):
        # every caller's p, and rounding off 1 within DEFAULT_TOL
        for p in ([0.5, 0.5], [0.3, 0.7], [0.2, 0.3, 0.5], [0.25] * 4, [0.5, 0.25, 0.25],
                  [1.0], [1 / 3] * 3, [0.5, 0.5 + 5e-10], [0.0, 1.0]):
            ts = bernoulli_system(G2, p)
            assert ts.pi.tolist() == [float(x) for x in p]
            assert validate(ts) == []


class TestPermutation:
    def test_single_point(self):
        ts = permutation_system(G2, 1)
        assert validate(ts, 1e-12) == []
        assert ts.n_states == 1

    def test_inverse_autofilled(self):
        ts = permutation_system(G2, 3, {1: (1, 2, 0)})
        np.testing.assert_allclose(ts.matrices[-1], ts.matrices[1].T)

    def test_wrong_inverse_rejected(self):
        with pytest.raises(ValueError, match="inverse"):
            permutation_system(G2, 3, {1: (1, 2, 0), -1: (1, 2, 0)})

    def test_non_bijection_rejected(self):
        with pytest.raises(ValueError, match="permutation"):
            permutation_system(G2, 3, {1: (0, 0, 1)})

    def test_semigroup_kind(self):
        ts = permutation_system(S2, 3, {1: (1, 2, 0)})
        assert validate(ts, 1e-12) == []
        assert set(ts.matrices) == {1, 2}


class TestProduct:
    def test_bernoulli_product_is_bernoulli(self):
        a = bernoulli_system(G2, [0.3, 0.7])
        b = bernoulli_system(G2, [0.5, 0.5])
        prod = product_system(a, b)
        expect = np.kron(a.pi, b.pi)
        np.testing.assert_allclose(prod.pi, expect)
        np.testing.assert_allclose(prod.matrices[1], np.tile(expect, (4, 1)))

    def test_identity_element(self, flip03):
        one = bernoulli_system(G2, [1.0])
        prod = product_system(flip03, one)
        np.testing.assert_allclose(prod.pi, flip03.pi)
        for s in G2.generators():
            np.testing.assert_allclose(prod.matrices[s], flip03.matrices[s])

    def test_preserves_validity(self, wsf2, flip03):
        assert validate(product_system(wsf2, flip03), 1e-12) == []

    def test_spec_mismatch(self, flip03, semigroup_ts):
        with pytest.raises(StructuralError):
            product_system(flip03, semigroup_ts)


class TestFromPairMarginals:
    @pytest.mark.parametrize("builder", [
        lambda: flip_system(2, 0.3), lambda: wsf_system(2),
        lambda: matching_system(2), lambda: bernoulli_system(G2, [0.3, 0.7]),
        lambda: permutation_system(G2, 3, {1: (1, 2, 0)}),
    ])
    def test_fixed_point_on_builtins(self, builder):
        ts = builder()
        stats = pair_stats(ts)
        rebuilt = from_pair_marginals(ts.spec, stats.pi, stats.joints,
                                      states=ts.states)
        assert rebuilt.states == ts.states
        np.testing.assert_allclose(rebuilt.pi, ts.pi, atol=1e-14)
        for s in ts.spec.generators():
            np.testing.assert_allclose(rebuilt.matrices[s], ts.matrices[s],
                                       atol=1e-14)
        assert validate(rebuilt) == []

    def test_diagonal_joints_give_identity_chain(self):
        pi = np.array([0.25, 0.75])
        joints = {s: np.diag(pi) for s in G2.generators()}
        ts = from_pair_marginals(G2, pi, joints)
        for s in G2.generators():
            np.testing.assert_allclose(ts.matrices[s], np.eye(2))

    def test_zero_mass_states_dropped(self):
        pi = np.array([0.5, 0.5, 0.0])
        j = np.zeros((3, 3))
        j[:2, :2] = 0.25
        joints = {s: j for s in G2.generators()}
        ts = from_pair_marginals(G2, pi, joints, states=("x", "y", "z"))
        assert ts.states == ("x", "y")
        assert validate(ts) == []

    def test_row_sum_mismatch(self):
        pi = np.array([0.5, 0.5])
        joints = {s: np.full((2, 2), 0.3) for s in G2.generators()}
        with pytest.raises(InconsistentMarginalsError, match="miss pi"):
            from_pair_marginals(G2, pi, joints)

    def test_non_finite_pi_rejected(self):
        # NaN > 0 is False: without the check state 0 would be dropped silently
        pi = np.array([math.nan, 1.0])
        joints = {s: np.diag([0.0, 1.0]) for s in G2.generators()}
        with pytest.raises(InconsistentMarginalsError, match=r"pi has non-finite entry nan at \(0,\)"):
            from_pair_marginals(G2, pi, joints)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_joint_rejected(self, value):
        pi = np.array([0.5, 0.5])
        joints = {s: np.full((2, 2), 0.25) for s in G2.generators()}
        joints[-1] = joints[-1].copy()
        joints[-1][1, 0] = value
        with pytest.raises(InconsistentMarginalsError,
                           match=rf"joint for generator -1 has non-finite entry {value} at \(1, 0\)"):
            from_pair_marginals(G2, pi, joints)

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -1.0])
    def test_bad_tolerance_refused(self, tol):
        # nan and inf would pass any joint; -1 would blame an entry of 0
        pi = np.array([0.5, 0.5])
        joints = {s: np.full((2, 2), 0.25) for s in G2.generators()}
        with pytest.raises(ValueError, match=f"tolerance must be finite and nonnegative, "
                                             f"got {tol!r}"):
            from_pair_marginals(G2, pi, joints, tol=tol)

    def test_empirical_wsf_within_tolerance(self, wsf2):
        src = empirical_source(wsf2, 1, seed=20260810, count=100_000)
        stats = pair_stats(src)
        rebuilt = from_pair_marginals(wsf2.spec, stats.pi, stats.joints,
                                      states=stats.states, tol=1e-6)
        worst = max(np.abs(rebuilt.matrices[s] - wsf2.matrices[s]).max()
                    for s in wsf2.spec.generators())
        assert worst < 0.01


class TestJson:
    @pytest.mark.parametrize("builder", [
        lambda: wsf_system(2), lambda: flip_system(2, 0.25),
        lambda: bernoulli_system(S2, [0.2, 0.8]),
        lambda: permutation_system(G2, 3, {1: (1, 2, 0)}),
    ])
    def test_round_trip(self, builder):
        ts = builder()
        doc = json.loads(json.dumps(to_json_dict(ts)))
        back = from_json_dict(doc)
        assert back.spec == ts.spec
        assert tuple(str(s) for s in back.states) == tuple(str(s) for s in ts.states)
        np.testing.assert_allclose(back.pi, ts.pi)
        for s in ts.spec.generators():
            np.testing.assert_allclose(back.matrices[s], ts.matrices[s])

    def test_schema_keys(self, flip03):
        doc = to_json_dict(flip03)
        assert set(doc) == {"group", "states", "pi", "P"}
        assert doc["group"] == {"rank": 2, "kind": "group"}
        assert set(doc["P"]) == {"s1", "s1_inv", "s2", "s2_inv"}

    def test_semigroup_has_no_inverse_keys(self, semigroup_ts):
        doc = to_json_dict(semigroup_ts)
        assert set(doc["P"]) == {"s1", "s2"}

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_document_rejected(self, flip03, token):
        text = json.dumps(to_json_dict(flip03)).replace("0.3", token, 1)
        with pytest.raises(FormatError, match="non-finite"):
            from_json_dict(json.loads(text))
        doc = to_json_dict(flip03)
        doc["pi"] = [json.loads(token), 0.5]
        with pytest.raises(FormatError, match="non-finite"):
            from_json_dict(doc)

    def test_malformed_document(self):
        with pytest.raises(FormatError):
            from_json_dict({"states": [0, 1]})
        with pytest.raises(FormatError):
            from_json_dict({"group": {"rank": 2, "kind": "group"},
                            "states": [0, 1], "pi": [0.5, 0.5],
                            "P": {"s1": [[1.0, 0.0]]}})

    def test_aliased_generator_name(self, flip03):
        # "s01" would parse as s1 and, read after it, replace its matrix
        doc = to_json_dict(flip03)
        doc["P"]["s01"] = np.eye(2).tolist()
        with pytest.raises(FormatError, match="bad generator name 's01'"):
            from_json_dict(doc)


class TestInputRefusals:
    """Each malformed input is refused with its own exception and message."""

    def test_transition_system_structure(self, flip03):
        mats = dict(flip03.matrices)
        with pytest.raises(StructuralError, match="state space must be nonempty"):
            TransitionSystem(G2, (), np.array([]), mats)
        with pytest.raises(StructuralError, match="state labels must be distinct"):
            TransitionSystem(G2, (0, 0), flip03.pi, mats)
        with pytest.raises(StructuralError,
                           match=r"matrix for generator 1 has shape \(2, 3\), expected \(2, 2\)"):
            TransitionSystem(G2, (0, 1), flip03.pi, {**mats, 1: np.full((2, 3), 0.5)})
        with pytest.raises(ValueError, match="unknown state label 'x'"):
            flip03.state_index("x")

    def test_pi_entry_range_reported(self, flip03):
        ts = TransitionSystem(G2, (0, 1), np.array([1.5, -0.5]), dict(flip03.matrices))
        ranges = [v for v in validate(ts) if v.condition == "pi_entry_range"]
        assert ranges == [("pi_entry_range", (0,), 0.5), ("pi_entry_range", (1,), 0.5)]

    @pytest.mark.parametrize("p", [[[0.5, 0.5]], []], ids=["two_dim", "empty"])
    def test_bernoulli_p_shape_refused(self, p):
        with pytest.raises(StructuralError, match="p must be a nonempty probability vector"):
            bernoulli_system(G2, p)

    def test_permutation_arguments_refused(self):
        with pytest.raises(ValueError, match="need at least one point, got 0"):
            permutation_system(G2, 0)
        with pytest.raises(ValueError, match="unexpected generator 3 in assignments"):
            permutation_system(G2, 2, {3: (1, 0)})
        with pytest.raises(ValueError, match="unexpected generator -1 in assignments"):
            permutation_system(S2, 2, {-1: (1, 0)})

    def test_pair_marginals_refused(self):
        pi = np.array([0.5, 0.5])
        joints = {s: np.full((2, 2), 0.25) for s in G2.generators()}
        with pytest.raises(StructuralError, match="3 state labels for a length-2 vector"):
            from_pair_marginals(G2, pi, joints, states=("x", "y", "z"))
        with pytest.raises(StructuralError, match=r"joints keyed by \[1, 2\] but generators"):
            from_pair_marginals(G2, pi, {1: joints[1], 2: joints[2]})
        with pytest.raises(StructuralError, match=r"joint for generator 1 has shape \(2, 3\)"):
            from_pair_marginals(G2, pi, {**joints, 1: np.full((2, 3), 1 / 6)})
        negative = np.array([[0.75, -0.25], [-0.25, 0.75]])
        with pytest.raises(InconsistentMarginalsError,
                           match="joint for generator -1 has negative entry -0.25"):
            from_pair_marginals(G2, pi, {**joints, -1: negative})


class TestJsonRank:
    @pytest.mark.parametrize("rank", [2.5, 2.0, "2", True],
                             ids=["fraction", "float", "string", "bool"])
    def test_rank_must_be_a_json_integer(self, flip03, rank):
        doc = to_json_dict(flip03)
        doc["group"]["rank"] = rank
        with pytest.raises(FormatError, match=f"group rank must be a JSON integer, got {rank!r}"):
            from_json_dict(doc)
        with pytest.raises(FormatError, match="must be a JSON integer"):
            from_json_dict(json.loads(json.dumps(doc)))

    def test_integer_rank_loads(self, flip03):
        assert from_json_dict(json.loads(json.dumps(to_json_dict(flip03)))).spec == G2


class TestOneStack:
    """A system copies its matrices once, into one read-only stack."""

    def test_every_write_is_refused(self, flip03):
        m = np.eye(2)
        with pytest.raises(TypeError):
            flip03.matrices[1] = m
        with pytest.raises(TypeError):
            del flip03.matrices[1]
        with pytest.raises(AttributeError):
            flip03.matrices.update({1: m})
        with pytest.raises(ValueError, match="read-only"):
            flip03.stacked[0, 0, 0] = 0.9
        with pytest.raises(ValueError, match="read-only"):
            flip03.matrices[1][0, 0] = 0.9
        assert flip03.stacked[:, 0, 0].tolist() == [0.3] * 4

    def test_stack_in_generator_order_mapping_in_key_order(self):
        # keys given in reverse; each matrix distinct, so a misplaced row shows
        gens = G2.generators()
        given = {s: np.eye(2) * 0.1 * a + np.array([[0, 1], [1, 0]]) * (1 - 0.1 * a)
                 for a, s in reversed(list(enumerate(gens)))}
        ts = TransitionSystem(G2, (0, 1), np.array([0.5, 0.5]), given)
        assert list(ts.matrices) == list(reversed(gens))
        assert ts.stacked.shape == (4, 2, 2) and ts.stacked.flags.c_contiguous
        for a, s in enumerate(gens):
            assert ts.stacked[a].tobytes() == given[s].tobytes()
            assert np.shares_memory(ts.matrices[s], ts.stacked)
        for m in given.values():
            m[0, 0] = 7.0  # the caller's arrays were copied
        assert (ts.stacked[:, 0, 0] != 7.0).all()
        assert "mappingproxy" in repr(ts)

    def test_sources_hold_no_matrix_copy(self, wsf2):
        # the grid, sum-product, support count and closed form all ran; every
        # array a chain source keeps is a vector, not a stack of its own
        for src in (MarkovSource(wsf2), coarsen(wsf2, [0, 0, 1, 1])):
            assert src.ts.stacked is wsf2.stacked
            src.ball_marginal(ball(G2, 1))
            src.domain_entropy(ball_domain(G2, 1, 1))
            src._support_count(ball_domain(G2, 2))
            src._root_and_edge_entropies
            for obj in (src, getattr(src, "base", src)):
                arrays = [v for v in vars(obj).values() if isinstance(v, np.ndarray)]
                arrays += [a for v in vars(obj).values() if isinstance(v, tuple)
                           for a in v if isinstance(a, np.ndarray)]
                assert all(a.ndim < 2 or np.shares_memory(a, wsf2.stacked) for a in arrays)
