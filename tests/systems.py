"""Random invariant transition systems for the tests, built by Sinkhorn scaling."""

import numpy as np

from freemarkov.transition import TransitionSystem


def sinkhorn_system(spec, k, seed, n_perms=None):
    """Random invariant system: Sinkhorn-scale a random joint J to margins pi.

    Each positive generator gets a joint J with row and column sums pi;
    P[s] = J / pi and, for groups, P[s^-1] = J^T / pi.  ``seed`` is a seed or
    a ``numpy.random.Generator``, which is drawn from.  Without ``n_perms``,
    pi is random and J positive.  With it, pi is uniform and each J is
    supported on the union of the identity and ``n_perms`` random
    permutations, a pattern with total support, so the matrices have zeros.
    """
    rng = np.random.default_rng(seed)  # a Generator is returned as it is
    if n_perms is None:
        pi = rng.uniform(0.5, 1.5, size=k)
        pi /= pi.sum()
    else:
        pi = np.full(k, 1.0 / k)
    mats = {}
    for s in spec.positive_generators():
        mask = np.full((k, k), n_perms is None) | np.eye(k, dtype=bool)
        for _ in range(n_perms or 0):
            mask[np.arange(k), rng.permutation(k)] = True
        j = np.where(mask, rng.uniform(0.1, 1.0, size=(k, k)), 0.0)
        for _ in range(10_000):
            j *= (pi / j.sum(axis=1))[:, None]
            j *= pi / j.sum(axis=0)
            if np.abs(j.sum(axis=1) - pi).max() < 1e-15:
                break
        mats[s] = j / pi[:, None]
        if spec.is_group:
            mats[-s] = j.T / pi[:, None]
    return TransitionSystem(spec, tuple(range(k)), pi, mats)
