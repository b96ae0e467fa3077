"""The names ``freemarkov`` exports: adding or removing one is deliberate."""

import types

import freemarkov

PUBLIC = {
    "BallMarginal", "CapabilityError", "CayleyEdge", "CheckResult", "CoarsenedSource",
    "EmpiricalSource", "EntropyReport", "FormatError", "GroupSpec", "IDENTITY",
    "InconsistentMarginalsError", "MarkovSource", "MeasureSource", "PairStats", "Pattern",
    "StructuralError", "SuperstateSystem", "TransitionSystem", "Violation", "Word",
    "approximation_sequence", "ball", "ball_size", "bernoulli_system", "big_F",
    "big_F_star", "binary_entropy", "check_markov_property", "check_shift_invariance",
    "coarsen", "conditional_entropy", "cylinder_prob", "empirical_source", "f_markov",
    "f_sequence", "flip_system", "from_json_dict", "from_pair_marginals",
    "induced_left_edges", "is_left_connected", "markov_approximation",
    "markov_fixed_point_gap", "matching_system", "pair_stats", "parse_word", "past",
    "permutation_system", "product_system", "reduce_word", "run_all", "sample",
    "sample_indices", "shannon", "to_json_dict", "tree_entropy", "tree_hull", "validate",
    "wsf_system",
}


def test_public_names_are_pinned():
    # modules are skipped, so importing freemarkov.cli first cannot add "cli"
    names = {name for name, value in vars(freemarkov).items()
             if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert names == PUBLIC
