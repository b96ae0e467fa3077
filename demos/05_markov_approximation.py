"""
Hidden-Markov measures and Markov approximation
===============================================

Coarsening a Markov chain through a state quotient generically destroys the
Markov property; the F sequence then drops strictly from depth 0 to depth 1,
and this strict drop characterizes non-Markov measures.  The depth-m Markov
approximation matches the source's statistics on the radius-m ball exactly,
and its f equals F(source, m) -- two pipelines, one number.
"""

from freemarkov import (GroupSpec, IDENTITY, approximation_sequence, big_F,
                        check_markov_property, coarsen, f_markov, f_sequence,
                        flip_system, markov_approximation, markov_fixed_point_gap,
                        permutation_system)
from freemarkov.measure import MarkovSource

group = GroupSpec(2, "group")

# A deterministic 3-cycle, observed through a 2-letter lens.
cycle = permutation_system(group, 3, {1: (1, 2, 0), 2: (1, 2, 0)})
hidden = coarsen(cycle, [0, 1, 1])

# The coarsened process remembers more than its neighbor tells.
gap = check_markov_property(hidden, IDENTITY, 1, 1)
print("conditional-entropy gap of the hidden process:", gap)

# Strict drop of F certifies non-Markov; the sequence then flattens at -log 3,
# the f of the underlying 3-point system (coarsening here is invertible on
# global configurations).
print("F sequence:", [round(r.big_f, 10) for r in f_sequence(hidden, 2)])

# The depth-m approximation is an honest transition system on patterns.
for m in (0, 1):
    approx = markov_approximation(hidden, m)
    print(f"\ndepth-{m} approximation: states {approx.inner.states}")
    print(f"  f(approximation) = {f_markov(approx.inner):.10f}")
    print(f"  F(source, {m})     = {big_F(hidden, m).big_f:.10f}")

# A hidden process is no fixed point of approximation: over B(e, 1) its
# depth-0 approximation holds log 4 more entropy than the source, whose
# hidden root state fixes the whole pattern.
print("\nfixed-point entropy gap of the hidden process at depth 0:",
      markov_fixed_point_gap(hidden, 0))

# Markov sources are their own approximations at every depth.
flip_src = MarkovSource(flip_system(2, 0.3))
print("approximation sequence of a Markov source:",
      [round(v, 10) for _, v in approximation_sequence(flip_src, 1)])
