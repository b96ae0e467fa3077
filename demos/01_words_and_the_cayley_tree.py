"""
Words, balls and the left-Cayley tree
=====================================

A rank-r free group has generators a, b, ... and their inverses A, B, ...;
a free semigroup has only the positive letters.  Elements are reduced words,
and the left-Cayley graph (an edge g -> s*g for every letter s) restricted
to any ball around the identity is a tree.  Everything downstream -- cylinder
probabilities, marginals, entropies -- lives on this tree.
"""

from freemarkov import (GroupSpec, ball, ball_size, induced_left_edges, parse_word,
                        past, reduce_word, tree_hull)
from freemarkov.words import Domain

group = GroupSpec(rank=2, kind="group")
semigroup = GroupSpec(rank=2, kind="semigroup")

# Free reduction: adjacent inverse letters cancel.
print("reduce a a^-1        ->", reduce_word([1, -1], group))
print("reduce a b b^-1 a    ->", reduce_word([1, 2, -2, 1], group))
print("semigroup a b        ->", reduce_word([1, 2], semigroup))

# Balls grow like (2r-1)^n; the closed form matches enumeration.
for n in range(4):
    b = ball(group, n)
    assert len(b) == ball_size(group, n)
    print(f"|B(e,{n})| = {len(b):3d}   first words:",
          " ".join(str(w) for w in b[:7]))

# The induced left-subgraph of a ball is a spanning tree rooted at e.
b1 = ball(group, 1)
print("\nedges of B(e,1):")
for tail, head, label in induced_left_edges(b1, group):
    print(f"  {tail} -> {head}   (letter {label})")

# A non-connected set is completed by its tree hull (geodesics to e).  Its
# Domain holds that hull, and ``keep`` lists the set's positions in it; keep
# is None exactly when the set is left-connected and contains e.
pts = [parse_word("e", group), parse_word("ab", group)]
dom = Domain.of(pts, group)
print("\n{e, ab}: hull of", dom.hull_size, "vertices, keep =", dom.keep.tolist())
print("tree hull:", sorted(str(w) for w in tree_hull(pts)))

# The past of a vertex in a generator direction is everything whose tree
# path to s*g runs through g -- the conditioning sets of the Markov property.
print("\nPast(a; e) in B(e,1):",
      [str(w) for w in past(parse_word("a", group), parse_word("e", group), 1, group)])
print("Past(ab; b) in B(e,1):",
      [str(w) for w in past(parse_word("ab", group), parse_word("b", group), 1, group)])
