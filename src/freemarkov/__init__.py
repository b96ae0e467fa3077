"""Markov chains over free groups and semigroups, and the f-invariant.

Everything is exact at desk scale: marginals come from the cylinder product
formula on the Cayley tree, entropies from those marginals, and the
f-invariant from its closed form (Markov systems) or from the nonincreasing
F sequence (general shift-invariant sources).
"""

from .approx import (SuperstateSystem, approximation_sequence, base_level_stats,
                     markov_approximation, markov_fixed_point_gap)
from .entropy import (EntropyReport, big_F, big_F_star, binary_entropy,
                      conditional_entropy, f_markov, f_sequence, shannon)
from .errors import (CapabilityError, FormatError, InconsistentMarginalsError,
                     StructuralError)
from .measure import (BallMarginal, CoarsenedSource, EmpiricalSource,
                      MarkovSource, MeasureSource, PairStats, Pattern,
                      check_markov_property,
                      check_shift_invariance, coarsen, cylinder_prob, d1,
                      empirical_source, pair_stats, sample, sample_indices,
                      tree_entropy)
from .transition import (TransitionSystem, Violation, bernoulli_system,
                         flip_system, from_json_dict, from_pair_marginals,
                         matching_system, permutation_system, product_system,
                         to_json_dict, validate, wsf_system)
from .verify import CheckResult, run_all
from .words import (CayleyEdge, GroupSpec, IDENTITY, Word, ball, ball_size,
                    induced_left_edges, is_left_connected, parse_word, past,
                    reduce_word, tree_hull)

__version__ = "0.1.0"
