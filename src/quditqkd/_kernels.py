"""Hot inner kernels of the Monte-Carlo simulator, in NumPy: gf_add, the
one addition of GF(N) element arrays, the purification round, the group
digit sums and the plurality vote."""

from __future__ import annotations

import numpy as np

# Always False: the kernels have one NumPy implementation.  Kept because
# benchmark provenance records the kernel path from this name.
USING_NUMBA = False

# Elements drawn, counted or argsorted at a time, cache-sized: a block's
# 1 MB intp buffer fits in a 2 MB L2 cache, a 2^18 block's 2 MB fills it.
# On a 2-core Xeon with that L2, a stable block argsort cost 12.8-16 ns per
# element at 2^18 and 3.5-11 ns at 2^15-2^17.
BLOCK = 1 << 17


def gf_add(add_t, x, y, out=None):
    """x + y over GF(N), for the field's (N, N) uint8 add table.  In
    characteristic 2 (1 + 1 = 0) this is the XOR of the n-bit encodings.
    Otherwise it is a flat lookup of the table at x*N + y, a BLOCK at a time
    through one intp index buffer; every index is in range by construction,
    and mode="clip" writes to out unbuffered."""
    if add_t[1, 1] == 0:
        return np.bitwise_xor(x, y, out=out)
    out = np.empty(x.size, np.uint8) if out is None else out
    buf = np.empty(min(BLOCK, x.size), np.intp)
    for start in range(0, x.size, BLOCK):
        blk = slice(start, start + BLOCK)
        idx = buf[: x[blk].size]
        np.multiply(x[blk], add_t.shape[0], out=idx, dtype=np.intp)
        idx += y[blk]
        np.take(add_t.ravel(), idx, out=out[blk], mode="clip")
    return out


# -- LOCC2 purification round ------------------------------------------
#
# Register 2j (control) pairs with 2j+1 (target); an odd last register is
# dropped.  A pair survives when the spin labels agree; the control keeps
# its value and spin label and accumulates the target's phase label.

def ep_round(a, b, s, bob, add_t):
    m = a.size // 2
    # gather from the contiguous arrays: take on a strided view copies it first
    ctl = 2 * np.flatnonzero(a[0 : 2 * m : 2] == a[1 : 2 * m : 2])
    phase = b.take(ctl)
    gf_add(add_t, phase, b.take(ctl + 1), out=phase)
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
