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
    perm = rng.permutation(n)
    return add_t, a, b, s, bob, perm


# plain-Python references: one pair or one group at a time
def ep_round_reference(a, b, s, bob, perm, add_t):
    out = ([], [], [], [])
    for i in range(len(perm) // 2):
        c, t = perm[2 * i], perm[2 * i + 1]
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
    add_t, a, b, s, bob, _ = pool
    n = 2_001
    perm = np.random.default_rng(7).permutation(n)
    return add_t, a[:n], b[:n], s[:n], bob[:n], perm


def test_ep_round_paths_agree(small_pool):
    """The kernel and the plain-Python reference agree."""
    add_t, a, b, s, bob, perm = small_pool
    want = ep_round_reference(*(x.tolist() for x in small_pool[1:]), add_t.tolist())
    got = kernels.ep_round(a, b, s, bob, perm, add_t)
    assert len(want[0]) > 0
    for w, g in zip(want, got):
        assert g.tolist() == w


def test_group_sums_paths_agree(small_pool):
    """The kernel and the plain-Python reference agree."""
    add_t, a, *_ = small_pool
    ell, r = 80, 25
    v = a[: ell * r].reshape(ell, r)
    want = group_sums_reference(v.tolist(), add_t.tolist())
    assert kernels.group_sums(v, ell, r, add_t).tolist() == want


def test_group_sums_match_xor_for_p2(pool):
    add_t, a, *_ = pool
    ell, r = 500, 9
    v = a[: ell * r].reshape(ell, r)
    want = np.bitwise_xor.reduce(v, axis=1)
    assert (kernels.group_sums(v, ell, r, add_t) == want).all()


def test_plurality_paths_agree(small_pool):
    """The kernel and the plain-Python reference agree."""
    add_t, a, b, *_ = small_pool
    ell, r = 150, 13
    v = b[: ell * r].reshape(ell, r)
    assert kernels.plurality(v, ell, r, 16).tolist() == plurality_reference(v.tolist(), 16)


def test_plurality_tie_breaks():
    # count ties prefer 0, then the smaller symbol
    v = np.array([[0, 1, 1, 0, 2], [1, 2, 2, 1, 3], [3, 3, 1, 1, 2]], dtype=np.uint8)
    assert kernels.plurality(v, 3, 5, 4).tolist() == [0, 1, 1]
    assert plurality_reference(v.tolist(), 4) == [0, 1, 1]
