"""Hot inner kernels of the Monte-Carlo simulator, in NumPy: gf_add, the
one addition of GF(N) element arrays, the purification round, the group
digit sums and the plurality vote.

gf_add and the purification round walk their input a BLOCK at a time, so
their index and mask buffers stay cache-sized whatever the pool size.  The
round's blocks hold an even number of registers (an odd BLOCK is rounded
up), so a pair never straddles two blocks; each block's surviving pairs
are found by comparing the two bytes of each 16-bit word of spin labels,
gathered from the block's contiguous registers, and joined to the previous
blocks' in pool order, one output array at a time."""

from __future__ import annotations

import numpy as np

# Always False: the kernels have one NumPy implementation.  Kept because
# benchmark provenance records the kernel path from this name.
USING_NUMBA = False

# Registers drawn, looked up, counted or moved at a time, cache-sized: a
# block's 1 MB intp index buffer (the sift's flat index, gf_add's table
# index, the pauli-iid draw's bucket index) fits in a 2 MB L2 cache, where
# a 2^18 block's 2 MB would fill it.
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
# its value and spin label and accumulates the target's phase label.  The
# pool arrays are contiguous uint8: a block is viewed as 16-bit words, and
# take on a strided view would copy it first.

def ep_round(a, b, s, bob, add_t):
    step = BLOCK + BLOCK % 2
    paired = a.size - a.size % 2
    parts = ([], [], [], [])  # each output's blocks
    for start in range(0, max(paired, 1), step):  # an empty pool makes one empty block
        blk = slice(start, min(start + step, paired))
        ab = a[blk]
        pair = ab.view(np.uint16)  # registers 2j and 2j+1 as the bytes of one word
        ctl = np.flatnonzero((pair & 0xFF) == (pair >> 8))
        ctl *= 2
        bb = b[blk]
        phase = bb.take(ctl)
        gf_add(add_t, phase, bb.take(ctl + 1), out=phase)
        for part, v in zip(parts, (ab.take(ctl), phase, s[blk].take(ctl), bob[blk].take(ctl))):
            part.append(v)
    # each output's blocks are dropped as it is joined, so the survivors are
    # held once, plus one output's blocks
    out = []
    for part in parts:
        out.append(part[0] if len(part) == 1 else np.concatenate(part))
        part.clear()
    return tuple(out)


# Field addition adds base-p digits mod p: sum each digit over a group.  In
# characteristic 2 that is the XOR of the n-bit encodings, as in gf_add.
def group_sums(v, gf):
    if gf.p == 2:
        return np.bitwise_xor.reduce(v, axis=1)
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
