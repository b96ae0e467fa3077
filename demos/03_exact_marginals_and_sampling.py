"""
Exact marginals, cylinder probabilities and sampling
====================================================

The probability of seeing a fixed pattern on a left-connected vertex set
containing the identity is the stationary mass at the root times one matrix
entry per tree edge.  Marginals on arbitrary finite sets are computed
exactly on the tree hull and then summed down; nothing is approximated.
"""

import numpy as np

from freemarkov import (GroupSpec, IDENTITY, MarkovSource, ball,
                        check_markov_property, check_shift_invariance,
                        cylinder_prob, flip_system, parse_word, sample_indices)

group = GroupSpec(2, "group")
flip = flip_system(2, 0.3)
src = MarkovSource(flip)

# Cylinder probabilities by hand: root 1/2, then (1-eps) per disagreeing edge.
a, b = parse_word("a", group), parse_word("b", group)
# A cylinder maps each word to the state label it fixes there.
print("P(x_e=0)              =", cylinder_prob(flip, {IDENTITY: 0}))
print("P(x_e=0, x_a=1)       =", cylinder_prob(flip, {IDENTITY: 0, a: 1}))
print("P(x_e=0, x_a=1, x_b=1) =", cylinder_prob(flip, {IDENTITY: 0, a: 1, b: 1}))

# At eps=0 the chain is a proper 2-coloring of the tree: only two patterns
# on any ball survive.  A pattern is a tuple of state indices, one per word
# of the domain in shortlex order.
frozen = MarkovSource(flip_system(2, 0.0)).ball_marginal(ball(group, 1))
print("\nfrozen flip support on", " ".join(str(w) for w in frozen.domain) + ":")
for pattern, p in frozen.sparse.items():
    print("  ", pattern, "->", p)

# Marginals are projective: summing B(e,2) down to B(e,1) reproduces the
# direct computation.
big = src.ball_marginal(ball(group, 2))
small = src.ball_marginal(ball(group, 1))
print("\nprojectivity gap:",
      np.abs(big.marginalize(ball(group, 1)).dense - small.dense).max())

# Shift invariance: translating any cylinder changes nothing.
worst = max(check_shift_invariance(flip, ball(group, n), s)
            for n in (0, 1, 2) for s in group.generators())
print("shift-invariance residual:", worst)

# The defining Markov property, numerically: conditioning on the whole
# truncated past is no better than conditioning on the neighbor.
print("markov property gap:",
      check_markov_property(src, IDENTITY, 1, 2))

# Seeded breadth-first sampling converges to the exact cylinder weights.
dom, rows = sample_indices(flip, 1, seed=7, count=100_000)
counts = np.zeros((2,) * 5)
np.add.at(counts, tuple(rows.T), 1.0)
exact = src.ball_marginal(dom).dense
print("\nmax |frequency - exact| over 100k samples:",
      np.abs(counts / rows.shape[0] - exact).max())
dom, rows = sample_indices(flip, 1, seed=7, count=3)
print("three sampled patterns on", " ".join(str(w) for w in dom) + ":")
for row in rows.tolist():
    print("  ", tuple(row))
