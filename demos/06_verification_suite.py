"""
The verification suite
======================

Every identity the library leans on runs as a named, seeded check with an
explicit residual and tolerance: f = F for Markov chains, additivity over
products, the finite-to-one correction, the two-point extension identity,
shift invariance, Markov chains as their own approximations, monotone F
sequences, and sampling consistency.  Negative controls feed broken inputs to
the same detectors and pass only if the detectors fire, so a clean run
certifies sensitivity as well as correctness.

The same suite is scriptable as ``freemarkov check [--only NAME] [--seed S]``.
"""

from freemarkov import run_all

results = run_all(seed=1729)
for res in results:
    print(res.line())

failed = [r for r in results if not r.passed]
print(f"\n{len(results) - len(failed)}/{len(results)} checks passed")
assert not failed
