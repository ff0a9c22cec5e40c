import functools

import numpy as np
import pytest

import quditqkd._kernels as kernels
from quditqkd.fields import make_field


@pytest.fixture(scope="module")
def pool():
    gf = make_field(2, 4)
    add_t = gf.add_table.astype(np.uint8)
    rng = np.random.default_rng(99)
    n = 50_001
    a = rng.integers(0, 16, n, dtype=np.uint8)
    b = rng.integers(0, 16, n, dtype=np.uint8)
    s = rng.integers(0, 16, n, dtype=np.uint8)
    bob = add_t[s, a]
    return add_t, a, b, s, bob


# plain-Python references: one pair or one group at a time
def ep_round_reference(a, b, s, bob, add_t):
    out = ([], [], [], [])
    for i in range(len(a) // 2):
        c, t = 2 * i, 2 * i + 1
        if a[c] == a[t]:
            for dst, val in zip(out, (a[c], add_t[b[c]][b[t]], s[c], bob[c])):
                dst.append(val)
    return out


def group_sums_reference(v, add_t):
    out = []
    for row in v:
        acc = row[0]
        for x in row[1:]:
            acc = add_t[acc][x]
        out.append(acc)
    return out


def plurality_reference(v, N):
    out = []
    for row in v:
        counts = [0] * N
        for x in row:
            counts[x] += 1
        best, best_count = 0, counts[0]
        for sym in range(1, N):
            if counts[sym] > best_count:
                best, best_count = sym, counts[sym]
        out.append(best)
    return out


@pytest.fixture(scope="module")
def small_pool(pool):
    add_t, a, b, s, bob = pool
    n = 2_001
    return add_t, a[:n], b[:n], s[:n], bob[:n]


def test_ep_round_paths_agree(small_pool):
    """The kernel and the plain-Python reference agree, pairing register
    2j with 2j+1 and dropping the odd last one, in even and odd
    characteristic (GF(16), GF(5) and GF(9))."""
    rng = np.random.default_rng(12)
    pools = [small_pool]
    for p, n in [(5, 1), (3, 2)]:
        add_t = make_field(p, n).add_table
        a, b, s = rng.integers(0, p**n, (3, 2_001), dtype=np.uint8)
        pools.append((add_t, a, b, s, add_t[s, a]))
    for add_t, *regs in pools:
        want = ep_round_reference(*(x.tolist() for x in regs), add_t.tolist())
        got = kernels.ep_round(*regs, add_t)
        assert len(want[0]) > 0
        for w, g in zip(want, got):
            assert g.dtype == np.uint8 and g.tolist() == w


def ep_round_one_shot(a, b, s, bob, add_t):
    # the whole pool in one pass
    m = a.size // 2
    ctl = 2 * np.flatnonzero(a[0 : 2 * m : 2] == a[1 : 2 * m : 2])
    return a[ctl], add_t[b[ctl], b[ctl + 1]].astype(np.uint8), s[ctl], bob[ctl]


@pytest.mark.parametrize("block", [7, 8])
def test_ep_round_blocks_match_one_shot(monkeypatch, block):
    """The blockwise round equals a one-shot pass over the whole pool for
    pools of 0-5 registers and around block edges, and leaves its inputs
    alone.  An odd BLOCK steps by BLOCK + 1, so a pair never straddles two
    blocks."""
    monkeypatch.setattr(kernels, "BLOCK", block)
    rng = np.random.default_rng(block)
    sizes = [*range(6), block - 1, block, block + 1, block + 2, 2 * block - 1, 2 * block,
             2 * block + 1, 2 * block + 2, 5 * block + 3]
    for p, n in [(2, 2), (5, 1)]:  # XOR and table addition
        add_t = make_field(p, n).add_table
        for size in sizes:
            a = rng.integers(0, 2, size, dtype=np.uint8)  # about half the pairs agree
            b, s = rng.integers(0, p**n, (2, size), dtype=np.uint8)
            regs = (a, b, s, add_t[s, a].astype(np.uint8))
            before = [v.copy() for v in regs]
            got = kernels.ep_round(*regs, add_t)
            for g, w in zip(got, ep_round_one_shot(*regs, add_t)):
                assert g.dtype == np.uint8 and g.tolist() == w.tolist(), (p, n, size)
            assert all(np.array_equal(v, w) for v, w in zip(regs, before))


def test_group_sums_paths_agree():
    """The kernel and the plain-Python reference agree, in even and odd
    characteristic."""
    rng = np.random.default_rng(11)
    ell, r = 80, 25
    for p, n in [(2, 2), (2, 4), (3, 2), (5, 1)]:
        gf = make_field(p, n)
        v = rng.integers(0, gf.N, (ell, r), dtype=np.uint8)
        want = group_sums_reference(v.tolist(), gf.add_table.tolist())
        got = kernels.group_sums(v, gf)
        assert got.dtype == v.dtype
        assert got.tolist() == want, (p, n)


def test_group_sums_match_xor_for_p2(pool):
    _, a, *_ = pool
    ell, r = 500, 9
    v = a[: ell * r].reshape(ell, r)
    gf = make_field(2, 4)
    want = [functools.reduce(gf.add, map(int, row)) for row in v]
    assert kernels.group_sums(v, gf).tolist() == want


@pytest.mark.parametrize("n", range(1, 9))
def test_group_sums_xor_is_the_digit_sum_in_characteristic_2(n):
    # each base-2 digit summed over the group mod 2, for every p = 2 field
    # with N <= 256, at the key groups of trials-small and sim-large and at
    # the edges
    gf = make_field(2, n)
    rng = np.random.default_rng(n)
    for shape in [(2, 2129), (926, 25), (1, 1), (0, 25)]:
        v = rng.integers(0, gf.N, shape, dtype=np.uint8)
        digits = gf.coeff_table.astype(np.intp)[v].sum(axis=1) % 2
        got = kernels.group_sums(v, gf)
        assert got.dtype == v.dtype and got.shape == shape[:1]
        assert np.array_equal(got, digits @ np.array(gf.basis)), shape


def test_plurality_paths_agree(small_pool):
    """The kernel and the plain-Python reference agree."""
    add_t, a, b, *_ = small_pool
    ell, r = 150, 13
    v = b[: ell * r].reshape(ell, r)
    assert kernels.plurality(v, 16).tolist() == plurality_reference(v.tolist(), 16)


def test_plurality_tie_breaks():
    # count ties prefer 0, then the smaller symbol
    v = np.array([[0, 1, 1, 0, 2], [1, 2, 2, 1, 3], [3, 3, 1, 1, 2]], dtype=np.uint8)
    assert kernels.plurality(v, 4).tolist() == [0, 1, 1]
    assert plurality_reference(v.tolist(), 4) == [0, 1, 1]
