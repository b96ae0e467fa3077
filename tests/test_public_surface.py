"""The names ``freemarkov`` exports, and the public members of each exported
class: adding or removing one is deliberate."""

import types

import freemarkov

PUBLIC = {
    "BallMarginal", "CapabilityError", "CheckResult", "CoarsenedSource",
    "EmpiricalSource", "EntropyReport", "FormatError", "GroupSpec", "IDENTITY",
    "InconsistentMarginalsError", "MarkovSource", "MeasureSource", "PairStats",
    "StructuralError", "SuperstateSystem", "TransitionSystem", "Violation", "Word",
    "approximation_sequence", "ball", "ball_size", "bernoulli_system", "big_F",
    "big_F_star", "binary_entropy", "check_markov_property", "check_shift_invariance",
    "coarsen", "conditional_entropy", "cylinder_prob", "empirical_source", "f_markov",
    "f_sequence", "flip_system", "from_json_dict", "from_pair_marginals",
    "induced_left_edges", "markov_approximation",
    "markov_fixed_point_gap", "matching_system", "pair_stats", "parse_word", "past",
    "permutation_system", "product_system", "reduce_word", "run_all",
    "sample_indices", "shannon", "to_json_dict", "tree_entropy", "tree_hull", "validate",
    "wsf_system",
}


def test_public_names_are_pinned():
    # modules are skipped, so importing freemarkov.cli first cannot add "cli"
    names = {name for name, value in vars(freemarkov).items()
             if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert names == PUBLIC


SOURCE = {"ball_marginal", "domain_entropy", "entropy_sum"}
MEMBERS = {
    "BallMarginal": {"dense", "entropy", "is_dense", "marginalize", "n_states", "patterns",
                     "sparse", "sub_codes", "to_json_dict", "total"},
    "CapabilityError": set(), "FormatError": set(), "InconsistentMarginalsError": set(),
    "StructuralError": set(),
    "CheckResult": {"details", "line", "to_json_dict"},
    "CoarsenedSource": SOURCE, "EmpiricalSource": SOURCE, "MarkovSource": SOURCE,
    "MeasureSource": SOURCE,
    "EntropyReport": {"big_f_star", "csv_header", "to_csv_row"},
    "GroupSpec": {"check_letter", "coefficient", "generator_name", "generators", "is_group",
                  "kind", "letter_from_name", "positive_generators"},
    "PairStats": set(), "SuperstateSystem": set(),
    "TransitionSystem": {"n_states", "state_index"},
    "Violation": {"condition", "residual", "where"},
    "Word": {"is_identity", "letters", "shortlex_key"},
}


def test_public_members_are_pinned():
    # what a class inherits from a builtin base (Exception, tuple) is not its own
    classes = {name: value for name, value in vars(freemarkov).items()
               if not name.startswith("_") and isinstance(value, type)}
    members = {}
    for name, cls in classes.items():
        inherited = {n for base in cls.__mro__ if base.__module__ == "builtins"
                     for n in dir(base)}
        members[name] = {n for n in dir(cls) if not n.startswith("_")} - inherited
    assert members == MEMBERS


def test_system_data_is_pinned():
    # dir(cls) cannot see dataclass fields or what __post_init__ sets
    ts = freemarkov.flip_system(2, 0.3)
    assert {n for n in vars(ts) if not n.startswith("_")} == {
        "spec", "states", "pi", "matrices", "stacked"}


def test_sources_share_one_entropy_path():
    # a source overrides at most _entropy: domain_entropy and entropy_sum,
    # the closed-form merge included, are written once, on MeasureSource
    subclasses, stack = [], [freemarkov.MeasureSource]
    while stack:
        children = stack.pop().__subclasses__()
        subclasses += children
        stack += children
    assert {"CoarsenedSource", "EmpiricalSource", "MarkovSource"} <= {
        cls.__name__ for cls in subclasses}
    assert [(cls.__name__, name) for cls in subclasses for name in vars(cls)
            if name in ("domain_entropy", "entropy_sum")] == []
