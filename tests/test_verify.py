import pytest

from freemarkov.transition import flip_system, validate
from freemarkov.verify import (CheckResult, check_approx_cross_validation,
                               check_characterization, check_f_equals_F,
                               check_finite_to_one, check_markov_fixed_point,
                               check_monotonicity, check_ow87,
                               check_product_additivity,
                               check_sampling_frequencies,
                               check_shift_invariance_suite,
                               check_structural_samples, cycle_coarsening,
                               cycle_system, negative_control, perturbed_flip,
                               perturbed_wsf, run_all, semigroup_example,
                               structural_violations)


class TestIndividualChecks:
    def test_f_equals_F_positive(self, wsf2, flip03):
        assert check_f_equals_F(wsf2, 1).passed
        assert check_f_equals_F(flip03, 2).passed

    def test_f_equals_F_negative_control(self):
        res = check_f_equals_F(perturbed_wsf(), 1, validate=False)
        assert not res.passed
        assert res.residual > 1e-3

    def test_characterization_strict_drop(self, coarsened_cycle):
        assert check_characterization(coarsened_cycle, expect_drop=True).passed

    def test_characterization_markov_no_drop(self, flip03):
        from freemarkov.measure import CoarsenedSource
        res = check_characterization(CoarsenedSource(flip03, [0, 1]),
                                     expect_drop=False)
        assert res.passed and "no drop" in res.details

    def test_bernoulli_coarsened_still_markov(self):
        from freemarkov.measure import CoarsenedSource
        from freemarkov.transition import bernoulli_system
        from freemarkov.words import GroupSpec
        src = CoarsenedSource(
            bernoulli_system(GroupSpec(2), [0.2, 0.3, 0.5]), [0, 1, 1])
        assert check_characterization(src, expect_drop=False).passed

    def test_product_additivity(self, flip03, wsf2):
        assert check_product_additivity(flip03, wsf2).passed

    def test_finite_to_one_cases(self):
        assert check_finite_to_one(3, 2, 2).passed
        assert check_finite_to_one(3, 1, 2).passed  # trivial fiber
        assert check_finite_to_one(2, 4, 3).passed

    def test_ow87(self):
        res = check_ow87()
        assert res.passed
        assert "0.6931472" in res.details and "1.3862944" in res.details

    def test_shift_invariance_suite(self):
        assert check_shift_invariance_suite().passed

    def test_fixed_point_and_cross_validation(self, flip03, coarsened_cycle):
        assert check_markov_fixed_point(flip03, 1).passed
        assert check_approx_cross_validation(coarsened_cycle, 1).passed

    def test_monotonicity(self, coarsened_cycle):
        assert check_monotonicity(coarsened_cycle, 2).passed

    def test_sampling_band(self, flip03):
        assert check_sampling_frequencies(flip03, 1, seed=99, count=100_000).passed


class TestStructuralSamples:
    def test_wsf_clean(self, wsf2):
        assert structural_violations(wsf2, "wsf", 2, seed=5, count=3000) == 0

    def test_matching_clean(self, matching2):
        assert structural_violations(matching2, "matching", 2, seed=5,
                                     count=3000) == 0

    def test_iid_through_matching_checker_fails(self):
        bad = structural_violations(flip_system(2, 0.5), "matching", 1,
                                    seed=5, count=2000)
        assert bad > 0

    def test_wsf_through_matching_checker_fails(self, wsf2):
        assert structural_violations(wsf2, "matching", 1, seed=5, count=500) > 0

    def test_unknown_kind(self, wsf2):
        with pytest.raises(ValueError):
            structural_violations(wsf2, "spanning", 1, seed=5, count=10)

    def test_check_wrapper(self, matching2):
        res = check_structural_samples(matching2, "matching", 2, seed=7,
                                       count=1000)
        assert res.passed and res.residual == 0.0


class TestFixtures:
    def test_cycle_system_valid(self):
        assert validate(cycle_system(), 1e-12) == []

    def test_semigroup_example_valid(self):
        assert validate(semigroup_example(), 1e-12) == []

    def test_perturbed_fixtures_invalid(self):
        assert validate(perturbed_flip()) != []
        assert validate(perturbed_wsf()) != []


class TestNegativeControlWrapper:
    def test_inverts_failure(self):
        inner = CheckResult("x", passed=False, residual=5.0, tolerance=1.0)
        wrapped = negative_control("nc", inner)
        assert wrapped.passed and wrapped.residual <= wrapped.tolerance

    def test_inverts_success(self):
        inner = CheckResult("x", passed=True, residual=0.0, tolerance=1.0)
        wrapped = negative_control("nc", inner)
        assert not wrapped.passed


class TestRunAll:
    def test_all_pass(self):
        results = run_all(seed=1729)
        assert results
        failing = [r.name for r in results if not r.passed]
        assert failing == []

    def test_result_invariant(self):
        for res in run_all(seed=1729):
            assert res.passed == (res.residual <= res.tolerance)

    def test_reproducible_bit_for_bit(self):
        a = run_all(seed=42)
        b = run_all(seed=42)
        assert [(r.name, r.residual, r.passed) for r in a] == \
               [(r.name, r.residual, r.passed) for r in b]

    def test_filter(self):
        results = run_all(seed=1, only="ow87")
        assert [r.name for r in results] == ["ow87"]

    def test_names_pinned(self):
        # each result is named after its key, shift_invariance's key printed short
        results = run_all(seed=1)
        assert [r.name for r in results] == [
            "f_equals_F/wsf2", "f_equals_F/matching2", "f_equals_F/flip(0.3)",
            "f_equals_F/bernoulli", "f_equals_F/semigroup",
            "characterization/coarsened_cycle", "characterization/identity_coarsening",
            "product_additivity/flip_x_flip", "product_additivity/bernoulli_x_bernoulli",
            "finite_to_one/3x2_r2", "finite_to_one/2x4_r3", "ow87", "shift_invariance",
            "markov_fixed_point/flip(0.3)_m1", "markov_fixed_point/wsf2_m0",
            "approx_cross_validation/coarsened_cycle", "monotonicity/coarsened_cycle",
            "monotonicity/flip(0.3)", "sampling/flip(0.3)_4sigma", "structural/wsf2",
            "structural/matching2", "negative_control/perturbed_pi_f_equals_F",
            "negative_control/perturbed_pi_shift", "negative_control/matching_checker",
            "negative_control/coarsened_fixed_point"]
        details = {r.name: r.details for r in results}
        assert details["negative_control/perturbed_pi_f_equals_F"].startswith(
            "wrapped f_equals_F/perturbed_pi_wsf: ")
        assert details["negative_control/matching_checker"].startswith(
            "wrapped structural/iid_flip: ")
        assert details["negative_control/coarsened_fixed_point"].startswith(
            "wrapped markov_fixed_point/coarsened_cycle_m0: ")

    def test_negative_controls_present(self):
        names = [r.name for r in run_all(seed=1, only="negative_control")]
        assert len(names) >= 2
