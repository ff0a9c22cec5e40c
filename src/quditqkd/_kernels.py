"""Hot inner kernels of the Monte-Carlo simulator, in NumPy."""

from __future__ import annotations

import numpy as np

# Always False: the kernels have one NumPy implementation.  Kept because
# benchmark provenance records the kernel path from this name.
USING_NUMBA = False


# -- LOCC2 purification round ------------------------------------------
#
# Registers perm[0], perm[1] form the first pair (control, target), and
# so on; an odd leftover register is dropped.  A pair survives when the
# two spin labels agree; the surviving control keeps its value and spin
# label and accumulates the target's phase label.

def ep_round(a, b, s, bob, perm, add_t):
    m = perm.size // 2
    c = perm[0 : 2 * m : 2]
    t = perm[1 : 2 * m : 2]
    keep = a[c] == a[t]
    c, t = c[keep], t[keep]
    return a[c], add_t[b[c], b[t]], s[c], bob[c]


def group_sums(v, ell, r, add_t):
    acc = v[:, 0].copy()
    for j in range(1, r):
        acc = add_t[acc, v[:, j]]
    return acc


def plurality(v, ell, r, N):
    counts = np.zeros((ell, N), dtype=np.int64)
    np.add.at(counts, (np.repeat(np.arange(ell), r), v.ravel()), 1)
    # prefer higher count, then symbol 0, then the smaller symbol
    pref = np.arange(N, 0, -1, dtype=np.int64)
    pref[0] = N + 1
    return np.argmax(counts * (N + 2) + pref[None, :], axis=1).astype(v.dtype)
