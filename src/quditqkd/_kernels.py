"""Hot inner kernels of the Monte-Carlo simulator, in NumPy."""

from __future__ import annotations

import numpy as np

# Always False: the kernels have one NumPy implementation.  Kept because
# benchmark provenance records the kernel path from this name.
USING_NUMBA = False


# -- LOCC2 purification round ------------------------------------------
#
# Register 2j (control) pairs with 2j+1 (target); an odd last register is
# dropped.  A pair survives when the spin labels agree; the control keeps
# its value and spin label and accumulates the target's phase label, added
# through the (N, N) add table, or by XOR at characteristic 2 (1 + 1 = 0).

def ep_round(a, b, s, bob, add_t):
    m = a.size // 2
    # gather from the contiguous arrays: take on a strided view copies it first
    ctl = 2 * np.flatnonzero(a[0 : 2 * m : 2] == a[1 : 2 * m : 2])
    phase, target = b.take(ctl), b.take(ctl + 1)
    phase = np.bitwise_xor(phase, target, out=phase) if add_t[1, 1] == 0 else add_t[phase, target]
    return a.take(ctl), phase, s.take(ctl), bob.take(ctl)


# Field addition adds base-p digits mod p: sum each digit over a group.
def group_sums(v, gf):
    sums = gf.coeff_table.astype(np.uint8)[v].sum(axis=1, dtype=np.intp) % gf.p
    return (sums @ np.array(gf.basis)).astype(v.dtype)


def plurality(v, N):
    ell = v.shape[0]
    flat = (np.arange(ell)[:, None] * N + v).ravel()
    counts = np.bincount(flat, minlength=ell * N).reshape(ell, N)
    # prefer higher count, then symbol 0, then the smaller symbol
    pref = np.arange(N, 0, -1, dtype=np.int64)
    pref[0] = N + 1
    return np.argmax(counts * (N + 2) + pref[None, :], axis=1).astype(v.dtype)
