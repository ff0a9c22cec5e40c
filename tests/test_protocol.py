import bisect
import hashlib
import json
import math
import tracemalloc
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from scipy.stats import chi2, f, norm

from conftest import PRIME_POWERS, cached_params, cached_partition
from quditqkd import _kernels, cli, protocol
from quditqkd.exceptions import ConfigError
from quditqkd.fields import make_field
from quditqkd.protocol import (
    ChannelModel,
    ProtocolConfig,
    estimate_qer,
    locc2_ep_round,
    pec_majority,
    run_protocol,
    run_trials,
    sample_raw_labels,
    sift,
)
from quditqkd.rates import ErrorDistribution, ep_step, qer_estimator, worst_case_distribution
from quditqkd.toperator import conjugation_tables


def make_config(p, n, **kw):
    gf, _ = cached_params(p, n)
    base = dict(gf=gf, L=100_000, rng_seed=1234, test_fraction=0.01)
    base.update(kw)
    return ProtocolConfig(**base)


# ---------------------------------------------------------------
# channels
# ---------------------------------------------------------------

def test_noiseless_channel_labels():
    gf, _ = cached_params(2, 2)
    rng = np.random.default_rng(0)
    lab = sample_raw_labels(ChannelModel(), gf, 1000, rng)
    a, b = lab // gf.N, lab % gf.N
    assert not a.any() and not b.any()


def test_measure_twirl_is_phase_only_in_channel_frame():
    gf, _ = cached_params(2, 2)
    rng = np.random.default_rng(0)
    lab = sample_raw_labels(ChannelModel(q=1.0), gf, 5000, rng)
    a, b = lab // gf.N, lab % gf.N
    assert not a.any()
    counts = np.bincount(b, minlength=4) / 5000
    assert np.abs(counts - 0.25).max() < 0.03


def worst_case_channel(gf, e00):
    """The pauli-iid channel: the worst-case label law at e00."""
    law = worst_case_distribution(gf, cached_partition(gf.p, gf.n), e00)
    return ChannelModel(label_rates=law.rates)


def random_label_channel(N):
    """A pauli-iid channel that gives every raw label some mass."""
    rates = np.random.default_rng(N).dirichlet(np.ones(N * N)).reshape(N, N)
    return ChannelModel(label_rates=rates)


# N = 17 and N = 32 need a uint16 flat label
@pytest.mark.parametrize("p,n", [(2, 2), (2, 4), (17, 1), (2, 5)])
def test_flat_sift_index_matches_two_pass_composition(p, n):
    gf, params = cached_params(p, n)
    N = gf.N
    ch = random_label_channel(N)
    lab = sample_raw_labels(ch, gf, 50_000, np.random.default_rng(3))
    assert lab.dtype == np.min_scalar_type(N * N - 1)
    law = ch.label_rates.ravel()
    assert (lab == categorical_reference(np.random.default_rng(3), law / law.sum(), 50_000)).all()
    cfg = make_config(p, n, L=200_000, rng_seed=9, abort_threshold=0.5)
    rep = run_protocol(cfg, ch)
    # replay run_protocol's draws; sift them and look each label up one by one
    rng = np.random.default_rng(9)
    n_sift = int(rng.binomial(cfg.L, 1.0 / (N + 1)))
    set_idx = rng.integers(0, N + 1, size=n_sift, dtype=np.uint8)
    rng.integers(0, N, size=n_sift, dtype=np.uint8)  # Alice's key digits, drawn before the labels
    lab = sample_raw_labels(ch, gf, n_sift, rng)
    eff_a, eff_b, set_sizes, counts = sift(gf, params, set_idx, lab.copy())  # a overwrites it
    ca, cb = conjugation_tables(gf, params)
    assert (eff_a == ca[set_idx, lab // N, lab % N]).all()
    assert (eff_b == cb[set_idx, lab // N, lab % N]).all()
    assert rep.n_sifted == n_sift
    assert rep.set_sizes == set_sizes.tolist() == np.bincount(set_idx, minlength=N + 1).tolist()
    want = np.bincount(eff_a.astype(int) * N + eff_b, minlength=N * N)
    assert rep.post_sift_label_counts == counts.tolist() == want.tolist()


@pytest.mark.parametrize("p,n", [(2, 2), (2, 4), (17, 1), (2, 5), (3, 1)])
@pytest.mark.parametrize("noiseless", [False, True], ids=["pauli-iid", "noiseless"])
def test_bob_value_enters_round_one_as_s_plus_a(monkeypatch, p, n, noiseless):
    # Bob's value is set after testing: every untested register carries s + a
    gf, _ = cached_params(p, n)
    ch = ChannelModel() if noiseless else worst_case_channel(gf, 0.8)
    entered, ep_round = [], protocol.locc2_ep_round  # copies of each round's input pool
    monkeypatch.setattr(protocol, "locc2_ep_round", lambda gf_, *pool: (
        entered.append([v.copy() for v in pool]) or ep_round(gf_, *pool)))
    rep = run_protocol(make_config(p, n, L=200_000, rng_seed=9, abort_threshold=0.5, ep_rounds=1,
                                   pec_r=1), ch)
    a, b, s, bob = entered[0]
    assert not rep.aborted
    assert a.size == b.size == s.size == bob.size == rep.n_sifted - sum(
        max(1, int(c * 0.01)) for c in rep.set_sizes)
    assert (bob == gf.add_table[s, a]).all()
    if noiseless:
        assert not a.any() and (bob == s).all()


@pytest.mark.parametrize("bad", [-0.1, np.nan])
def test_pauli_iid_rejects_negative_or_nan_rates(bad):
    # the label sampler trusts the law: a negative or NaN rate would draw garbage
    gf, _ = cached_params(2, 1)
    rates = np.array([[0.6, 0.3], [0.2, 0.0]])
    rates[1, 1] = bad
    with pytest.raises(ConfigError):
        ChannelModel(label_rates=rates).validate(gf)


def test_explicit_law_rejects_a_stray_q():
    # an explicit law is the whole channel: the sampler never reads q, so a
    # run must not accept one it would silently ignore
    gf, _ = cached_params(2, 1)
    law = worst_case_channel(gf, 0.8).label_rates
    with pytest.raises(ConfigError, match="does not read q"):
        run_protocol(make_config(2, 1, L=10_000), ChannelModel(q=0.3, label_rates=law))


# ---------------------------------------------------------------
# 8-bit variates
# ---------------------------------------------------------------

B = _kernels.BLOCK


@pytest.mark.parametrize("count", [0, 1, 3, 4, 5, B - 1, B, B + 1, 3 * B + 1])
def test_uint8_below_matches_integers_bit_for_bit(count):
    # every range, across block edges and refills after rejections: the same
    # variates as NumPy's own 8-bit draw, and the generator left where it is
    for R in range(1, 257):
        mine, ref = np.random.default_rng((R, count)), np.random.default_rng((R, count))
        got = protocol._uint8_below(mine, R, count)
        want = ref.integers(0, R, size=count, dtype=np.uint8)
        assert got.dtype == np.uint8 and np.array_equal(got, want), R
        assert mine.random() == ref.random(), R
        assert mine.integers(0, 2**62) == ref.integers(0, 2**62), R


def test_uint8_below_is_blind_to_the_block_size(monkeypatch):
    # a block that is not a whole number of 32-bit outputs
    monkeypatch.setattr(_kernels, "BLOCK", 7)
    for R in range(1, 257):
        mine, ref = np.random.default_rng(R), np.random.default_rng(R)
        assert np.array_equal(protocol._uint8_below(mine, R, 1001),
                              ref.integers(0, R, size=1001, dtype=np.uint8)), R
        assert mine.integers(0, 2**62) == ref.integers(0, 2**62), R


def _buffered_pair(seed):
    """Two equal generators that each hold a buffered 32-bit half."""
    pair = np.random.default_rng(seed), np.random.default_rng(seed)
    for g in pair:
        g.integers(0, 2**32, dtype=np.uint32)
    return pair


def _assert_same_stream_after(mine, ref):
    # a buffered half (read by 32-bit draws, choice's Lemire path included)
    # and the 64-bit stream both continue where NumPy's own draw left them
    assert mine.bit_generator.state == ref.bit_generator.state
    assert np.array_equal(mine.integers(0, 2**32, size=3, dtype=np.uint32),
                          ref.integers(0, 2**32, size=3, dtype=np.uint32))
    assert np.array_equal(mine.choice(10**6, 5, replace=False), ref.choice(10**6, 5, replace=False))
    assert mine.random() == ref.random()


@pytest.mark.parametrize("buffered", [False, True], ids=["fresh", "buffered-half"])
def test_raw_u32_matches_integers_bit_for_bit(buffered):
    for k in (0, 1, 2, 3, 4, 1001):
        mine, ref = _buffered_pair(k) if buffered else (np.random.default_rng(k),
                                                        np.random.default_rng(k))
        got = protocol._raw_u32(mine, k)
        assert got.dtype == np.uint32
        assert np.array_equal(got, ref.integers(0, 2**32, size=k, dtype=np.uint32)), k
        _assert_same_stream_after(mine, ref)


# 32-bit outputs used when R divides 256: ceil(count / 4), odd and even on
# each side of a block edge
@pytest.mark.parametrize("count", [1, 5, B - 4, B - 1, B, B + 1, B + 5, 3 * B + 1])
def test_uint8_below_from_a_buffered_half(count):
    for R in (1, 2, 3, 7, 16, 17, 100, 128, 255, 256):
        mine, ref = _buffered_pair((R, count))
        got = protocol._uint8_below(mine, R, count)
        assert np.array_equal(got, ref.integers(0, R, size=count, dtype=np.uint8)), R
        _assert_same_stream_after(mine, ref)


# ---------------------------------------------------------------
# twirl labels
# ---------------------------------------------------------------

def twirl_reference(rng, q, N, count):
    """The twirl's rule over the whole array: one generator byte per
    register, measured below t = floor(256 q); then one double per byte
    equal to t, in pool order, measured below 256 q - t; then the phase.
    At q = 0 nothing is drawn and the generator is left unchanged."""
    if q == 0:
        return np.zeros(count, np.uint8)
    t = math.floor(256 * q)
    byte = rng.integers(0, 2**32, size=-(-count // 4), dtype=np.uint32).astype("<u4")
    byte = byte.view(np.uint8)[:count]
    measured = byte < t
    tie = np.flatnonzero(byte == t)
    measured[tie] = rng.random(tie.size) < 256 * q - t
    return measured * rng.integers(0, N, count, dtype=np.uint8)


TWIRL_Q = (0.0, 2**-60, 1 / 3, 0.84, 1 - 2**-40, 1.0)


def _check_twirl(N, count):
    gf = make_field(2, N.bit_length() - 1)
    dtype = np.min_scalar_type(N * N - 1)  # uint16 at N = 32
    for q in TWIRL_Q:
        mine, ref = np.random.default_rng((N, count)), np.random.default_rng((N, count))
        got = sample_raw_labels(ChannelModel(q=q), gf, count, mine)
        want = twirl_reference(ref, q, N, count)
        assert got.dtype == dtype and np.array_equal(got, want), q
        assert mine.bit_generator.state == ref.bit_generator.state, q
        assert mine.random() == ref.random()


@pytest.mark.parametrize("N", [2, 16, 32])
@pytest.mark.parametrize("count", [0, 1, B - 1, B, B + 1, 3 * B + 1])
def test_twirl_labels_match_reference_bit_for_bit(N, count):
    # the same labels as the whole-array rule, and the generator left where it is
    _check_twirl(N, count)


@pytest.mark.parametrize("N", [2, 16, 32])
def test_twirl_labels_are_blind_to_the_block_size(monkeypatch, N):
    monkeypatch.setattr(_kernels, "BLOCK", 7)
    _check_twirl(N, 1001)


@pytest.mark.parametrize("q", [0.0, 2**-61, 2**-60, 1e-9, 0.1, 1 / 3, 0.5, 0.84, 1 - 2**-40,
                               1 - 2**-53, 1.0])
def test_twirl_measures_with_probability_q_on_the_2_61_grid(monkeypatch, q):
    """Every byte value once, each tie given the double k / 2^53: the code's
    P(measured), averaged exactly over all 256 bytes and all 2^53 doubles
    (the measured count is a step in k, found by bisection), is
    ceil(q 2^61) / 2^61."""
    gf = make_field(2, 1)

    def measured(k):
        words = iter([np.arange(256, dtype=np.uint8).view("<u4"),  # the mask's bytes
                      np.full(64, 2**32 - 1, "<u4")])  # phase 1 everywhere: the label is the mask
        monkeypatch.setattr(protocol, "_raw_u32", lambda rng, n: next(words))

        class Doubles:
            def random(self, n):
                return np.full(n, k / 2**53)

        return int(sample_raw_labels(ChannelModel(q=q), gf, 256, Doubles()).sum())

    always, most = measured(2**53 - 1), measured(0)
    assert most - always in (0, 1)  # at most one byte is a tie
    lo, hi = 0, 2**53  # the doubles that measure the tie are k < hi
    while lo < hi:
        mid = (lo + hi) // 2
        lo, hi = (mid + 1, hi) if measured(mid) > always else (lo, mid)
    p = Fraction(always, 256) + Fraction((most - always) * hi, 256 * 2**53)
    assert p == Fraction(math.ceil(Fraction(q) * 2**61), 2**61)
    if q >= 0.5:  # the rule of rng.random(count) < q
        assert p == Fraction(math.ceil(Fraction(q) * 2**53), 2**53) == q


@pytest.mark.statistical
def test_twirl_law_chi_square(monkeypatch):
    """Independent runs at N = 2, 16, 32 and q = 0.01, 1/3, 0.84: the
    measured count (phase fixed to 1, so the label is the mask) and the
    label histogram; the summed chi-square stays below its 0.999 quantile.
    False-failure probability 0.001 (chi-square approximation)."""
    count, stat, df = 1_000_000, 0.0, 0
    for N in (2, 16, 32):
        gf = make_field(2, N.bit_length() - 1)
        for q in (0.01, 1 / 3, 0.84):
            seed = (N, round(q * 100))  # one stream for the labels, another for the mask
            lab = sample_raw_labels(ChannelModel(q=q), gf, count, np.random.default_rng((*seed, 0)))
            want = np.full(N, count * q / N)
            want[0] += count * (1 - q)
            stat += float(((np.bincount(lab, minlength=N) - want) ** 2 / want).sum())
            with monkeypatch.context() as m:
                m.setattr(protocol, "_uint8_below", lambda rng, R, n: np.ones(n, np.uint8))
                hits = int(sample_raw_labels(ChannelModel(q=q), gf, count,
                                             np.random.default_rng((*seed, 1))).sum())
            stat += (hits - count * q) ** 2 / (count * q * (1 - q))
            df += N
    assert stat < chi2.ppf(0.999, df)


# ---------------------------------------------------------------
# categorical labels
# ---------------------------------------------------------------

def _categorical_laws():
    laws = {}
    for p, n in PRIME_POWERS:
        gf, _ = cached_params(p, n)
        for e00 in (0.5, 0.9, 0.999):
            law = worst_case_distribution(gf, cached_partition(p, n), e00).rates
            laws[f"worst case N={gf.N} e00={e00}"] = law.ravel()
    rng = np.random.default_rng(0)
    for K in (2, 16, 255, 256, 1024):
        w = rng.dirichlet(np.ones(K)) ** 3
        w[rng.permutation(K)[: K * 3 // 10]] = 0.0
        laws[f"Dirichlet K={K}, 30% zeros"] = w
    # 256 labels in uint8 leave no spare sentinel value; with every label
    # spanning whole buckets, the sentinel, the least likely label, is drawn
    laws["Dirichlet K=256, full support"] = rng.dirichlet(np.full(256, 50.0))
    laws["point mass"] = np.eye(16)[5]
    tiny = np.ones(16)
    tiny[3] = 1e-12  # cdf entries 2 and 3 share a bucket
    laws["1e-12 entry"] = tiny
    return {name: w / w.sum() for name, w in laws.items()}


CATEGORICAL_LAWS = _categorical_laws()


def categorical_reference(rng, p, count):
    """The word rule over the whole array: one generator word w per label,
    16 bits (32 above 256 labels), and the label #{j : C_j <= w} for C the
    normalised cdf scaled by 2^bits; then, in pool order, one double V for
    each word with an entry strictly inside (w, w + 1), whose label counts
    the entries C_j <= w + V (C_j - w is exact there)."""
    bits = 16 if p.size <= 256 else 32
    cdf = p.cumsum()
    C = cdf / cdf[-1] * 2.0**bits
    w = rng.integers(0, 2**32, size=-(-count * bits // 32), dtype=np.uint32).astype("<u4")
    w = w.view(f"<u{bits // 8}")[:count].astype(float)
    lab = C.searchsorted(w, "right")
    (split,) = np.nonzero(C[lab] < w + 1)
    for i, v in zip(split, rng.random(split.size)):
        inside = (C > w[i]) & (C < w[i] + 1)
        lab[i] += np.count_nonzero(C[inside] - w[i] <= v)
    return lab


def _check_categorical(seed, count):
    for name, p in CATEGORICAL_LAWS.items():
        mine, ref = _buffered_pair((seed, count))
        got = protocol._categorical(mine, p, np.empty(count, np.min_scalar_type(p.size - 1)))
        assert np.array_equal(got, categorical_reference(ref, p, count)), name
        _assert_same_stream_after(mine, ref)


@pytest.mark.parametrize("count", [0, 1, B - 1, B, B + 1, 3 * B + 1])
def test_categorical_matches_reference_bit_for_bit(count):
    # the same labels as the whole-array rule, and the generator left where it is
    _check_categorical(1, count)


def test_categorical_is_blind_to_the_block_size(monkeypatch):
    monkeypatch.setattr(_kernels, "BLOCK", 7)
    _check_categorical(2, 1001)


@pytest.mark.parametrize("name", ["worst case N=16 e00=0.9", "Dirichlet K=16, 30% zeros",
                                  "Dirichlet K=256, full support", "Dirichlet K=1024, 30% zeros",
                                  "1e-12 entry"])
def test_categorical_label_counts_the_cdf_entries_below_u(monkeypatch, name):
    """Every word with a scaled cdf entry strictly inside (w, w + 1), and
    its two neighbours, fed to _categorical as its generator words: each
    label is #{j : cdf_j <= (w + V) 2^-bits}, counted in exact rationals,
    with V the next double for a word with an entry inside and any V for
    the rest, and a double is drawn for exactly the former."""
    p = CATEGORICAL_LAWS[name]
    bits = 16 if p.size <= 256 else 32
    cdf = p.cumsum()
    cdf /= cdf[-1]
    C = cdf * 2.0**bits
    split = np.floor(C[C != np.floor(C)])
    words = np.unique(np.concatenate([split - 1, split, split + 1]).clip(0, 2**bits - 1))
    raw = np.zeros(-(-words.size * bits // 32) * 32 // bits, f"<u{bits // 8}")
    raw[: words.size] = words
    assert words.size < B  # one block: one draw of all the words
    monkeypatch.setattr(protocol, "_raw_u32", lambda rng, n: raw.view("<u4")[:n])
    mine, twin = np.random.default_rng(7), np.random.default_rng(7)
    got = protocol._categorical(mine, p, np.empty(words.size, np.min_scalar_type(p.size - 1)))
    is_split = np.isin(words, split)
    v = iter(twin.random(int(is_split.sum())))
    assert mine.bit_generator.state == twin.bit_generator.state
    steps = [Fraction(c) for c in cdf]
    for w, s, label in zip(words, is_split, got):
        u = (int(w) + (Fraction(next(v)) if s else 0)) / Fraction(2**bits)
        assert label == bisect.bisect_right(steps, u), (w, s)


@pytest.mark.statistical
@pytest.mark.parametrize("name", CATEGORICAL_LAWS)
def test_categorical_law_chi_square(name):
    """1M labels of each law: no label of zero mass is drawn, and the
    chi-square of the counts (cells expecting fewer than 5 pooled, a pool
    expecting fewer than 5 joined to the largest cell) stays below its
    0.999 quantile.  False-failure probability 0.001 per law (chi-square
    approximation); a drawn label of zero mass is a fault, not chance."""
    p = CATEGORICAL_LAWS[name]
    count = 1_000_000
    seed = list(CATEGORICAL_LAWS).index(name)
    lab = protocol._categorical(np.random.default_rng((5, seed)), p,
                                np.empty(count, np.min_scalar_type(p.size - 1)))
    got = np.bincount(lab, minlength=p.size)
    assert not got[p == 0].any()
    want = count * p[p > 0]
    got = got[p > 0]
    small = want < 5
    got, want = np.append(got[~small], got[small].sum()), np.append(want[~small], want[small].sum())
    if want[-1] < 5:
        big = np.argmax(want[:-1])
        got[big] += got[-1]
        want[big] += want[-1]
        got, want = got[:-1], want[:-1]
    if want.size > 1:
        assert ((got - want) ** 2 / want).sum() < chi2.ppf(0.999, want.size - 1)


@pytest.mark.parametrize("K,bound", [(16, 1.07), (256, 1.07), (63001, 2.02)])
def test_categorical_traced_peak_per_label(K, bound):
    """2M labels of a full-support law: the traced peak above out, per
    label, stays within 1.07 B (2.02 B at K = 63001).  The double-per-label
    sampler this one replaced read 1.07, 1.08 and 2.02 B at K = 16, 256 and
    63001; this one reads about 0.67, 0.84 and 1.90, as only words with an
    entry inside their unit interval keep state for refinement."""
    p = np.random.default_rng(K).dirichlet(np.ones(K))
    out = np.empty(2_000_000, np.min_scalar_type(K - 1))
    tracemalloc.start()
    try:
        protocol._categorical(np.random.default_rng(0), p, out)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak / out.size <= bound


# ---------------------------------------------------------------
# sift
# ---------------------------------------------------------------

FIELDS_TO_256 = [(p, n) for p in range(2, 257) if all(p % d for d in range(2, p))
                 for n in range(1, 9) if p**n <= 256]


@pytest.mark.parametrize("p,n", FIELDS_TO_256)
def test_gf_add_matches_add_table(p, n):
    # p = 2 adds by XOR, odd p through the table; both must be the table
    gf = make_field(p, n)
    x, y = (v.ravel().astype(np.uint8) for v in np.indices((gf.N, gf.N)))
    want = gf.add_table[x, y]
    assert (_kernels.gf_add(gf.add_table, x, y) == want).all()
    # into a slice of a longer array
    out = np.zeros(x.size + 3, np.uint8)
    _kernels.gf_add(gf.add_table, x, y, out=out[1:-2])
    assert (out[1:-2] == want).all() and not out[[0, -2, -1]].any()


@pytest.mark.parametrize("p,n", [(p, n) for p, n in FIELDS_TO_256 if p**n <= 32])
def test_gf_add_walks_the_input_block_by_block(monkeypatch, p, n):
    # odd p looks the sums up a BLOCK at a time: N^2 pairs span several
    # blocks of 7, the last one partial when 7 does not divide N^2
    monkeypatch.setattr(_kernels, "BLOCK", 7)
    gf = make_field(p, n)
    x, y = (v.ravel().astype(np.uint8) for v in np.indices((gf.N, gf.N)))
    want = gf.add_table[x, y]
    assert (_kernels.gf_add(gf.add_table, x, y) == want).all()
    out = np.zeros(x.size + 3, np.uint8)
    _kernels.gf_add(gf.add_table, x[1:], y[1:], out=out[2:-2])
    assert (out[2:-2] == want[1:]).all() and not out[[0, 1, -2, -1]].any()


def test_sift_all_matching_powers():
    gf, params = cached_params(2, 1)
    n = 1000
    powers = np.full(n, 2, dtype=np.uint8)
    raw = np.zeros(n, dtype=np.uint8)
    eff_a, eff_b, set_sizes, _ = sift(gf, params, powers, raw * gf.N + raw)
    assert eff_a.size == n and set_sizes.tolist() == [0, 0, n]
    assert not eff_a.any() and not eff_b.any()


@pytest.mark.parametrize("block", [7, 8, None])
# uint8 and uint16 flat labels; N = 64 also needs a uint32 flat sift index
@pytest.mark.parametrize("p,n", [(2, 4), (17, 1), (2, 6)])
def test_sift_writes_a_over_the_label_buffer(monkeypatch, p, n, block):
    # block j writes only label bytes that blocks 0..j have read
    if block is not None:
        monkeypatch.setattr(_kernels, "BLOCK", block)
    gf, params = cached_params(p, n)
    N = gf.N
    rng = np.random.default_rng(N)
    set_idx = rng.integers(0, N + 1, 1000, dtype=np.uint8)
    lab = sample_raw_labels(random_label_channel(N), gf, set_idx.size, rng)
    assert lab.dtype == (np.uint8 if N <= 16 else np.uint16)
    buf = lab.copy()
    a, b, _, _ = sift(gf, params, set_idx, buf)
    ca, cb = conjugation_tables(gf, params)
    assert (a == ca[set_idx, lab // N, lab % N]).all() and (b == cb[set_idx, lab // N, lab % N]).all()
    assert a.dtype == b.dtype == np.uint8
    assert np.shares_memory(a, buf) and (buf.view(np.uint8)[: a.size] == a).all()


@pytest.mark.statistical
def test_sift_retention_statistics():
    """Each of the N + 1 = 3 sets keeps a 1/(N+1)^2 share of the
    transmissions, within 3 sd: false-failure probability at most
    3 x 0.0027 = 0.0081 (normal approximation, union bound)."""
    L = 100_000
    rep = run_protocol(make_config(2, 1, L=L, rng_seed=77), ChannelModel())
    for count in rep.set_sizes:
        sigma = np.sqrt(L * (1 / 9) * (8 / 9))
        assert abs(count - L / 9) < 3 * sigma


def test_sift_conjugates_labels():
    # a pure phase error in the channel frame becomes a spin error in
    # every set whose power moves the standard basis
    gf, params = cached_params(2, 1)
    n = 9
    set_idx = np.array([0, 0, 0, 1, 1, 1, 2, 2, 2], dtype=np.uint8)
    raw_a = np.zeros(n, dtype=np.uint8)
    raw_b = np.array([0, 1, 1, 0, 1, 1, 0, 1, 1], dtype=np.uint8)
    eff_a, _, _, _ = sift(gf, params, set_idx, raw_a * gf.N + raw_b)
    assert not eff_a[set_idx == 0].any()
    assert (eff_a[(set_idx != 0) & (raw_b != 0)] != 0).all()


# ---------------------------------------------------------------
# estimation
# ---------------------------------------------------------------

def estimate_reference(set_idx, eff_a, test_counts, rng):
    """The thinning rule with one flatnonzero scan per set: the marks from one
    8-bit draw over the whole pool, redrawn at twice the level while a set
    falls short, then the same choices.  Also returns the final level."""
    k = protocol._thinning_level(np.bincount(set_idx, minlength=test_counts.size), test_counts)
    while True:
        marked = rng.integers(0, 256, set_idx.size, dtype=np.uint8) < k
        members = [np.flatnonzero(marked & (set_idx == i)) for i in range(test_counts.size)]
        if all(m.size >= want for m, want in zip(members, test_counts)):
            break
        k = min(256, 2 * k)
    tested = np.zeros(set_idx.size, dtype=bool)
    e_hats = []
    for m, want in zip(members, test_counts):
        chosen = m[rng.choice(m.size, size=want, replace=False)]
        tested[chosen] = True
        e_hats.append(float((eff_a[chosen] != 0).mean()))
    return tested, e_hats, k


@pytest.mark.parametrize("block", [1, 2, 7, 64, 1 << 18])
def test_block_locator_matches_per_set_scan(monkeypatch, block):
    gf, _ = cached_params(2, 2)
    rng = np.random.default_rng(21)
    n = 1_000
    set_idx = rng.integers(0, 5, n, dtype=np.uint8)
    # set 2 sits on both sides of every block edge (and at both ends of the
    # pool) for blocks of 7 and 64
    k = np.arange(n)
    set_idx[np.isin(k % 7, (0, 6)) | np.isin(k % 64, (0, 63)) | (k == n - 1)] = 2
    eff_a = rng.integers(0, 4, n, dtype=np.uint8)
    sizes = np.bincount(set_idx, minlength=5)
    monkeypatch.setattr(_kernels, "BLOCK", block)
    for case in ("edges", "thin", "redraw"):
        pool = (eff_a.copy(), *rng.integers(0, 4, (2, n), dtype=np.uint8))  # (a, b, s)
        want_pool = [v.copy() for v in pool]
        if case == "edges":  # set 2 is tested whole and set 4 all but one: all are marked
            test_counts = np.array([30, 1, sizes[2], 50, sizes[4] - 1])
        else:  # each set's mean mark count is near its test count without a margin
            test_counts = sizes // 16
        with monkeypatch.context() as mp:
            if case == "redraw":  # no margin: some set falls short of its test count
                mp.setattr(protocol, "_SHORT_LOG", 0.0)
            first = protocol._thinning_level(sizes, test_counts)
            tested, e_hats, last = estimate_reference(set_idx, eff_a, test_counts,
                                                      np.random.default_rng(5))
            est = estimate_qer(gf, set_idx, sizes, pool, test_counts, 0.9, np.random.default_rng(5))
        assert est.kept == n - test_counts.sum()
        # swap-remove: the holes below kept, ascending, take the untested
        # registers of the tail, ascending
        order = np.arange(est.kept)
        order[tested[: est.kept]] = est.kept + np.flatnonzero(~tested[est.kept :])
        for v, want in zip(pool, want_pool):
            assert (v[: est.kept] == want[order]).all(), case
            assert (np.bincount(v[: est.kept], minlength=4)
                    == np.bincount(want[~tested], minlength=4)).all(), case
        assert est.e_hats == e_hats, case
        assert {"edges": first == last == 256, "thin": first == last < 256,
                "redraw": first < last}[case]
        if case == "edges":
            assert tested[[0, 6, 7, 63, 64, n - 1]].all()


@pytest.mark.statistical
@pytest.mark.parametrize("margin", [None, 0.0], ids=["first-draw", "redraw"])
def test_tested_registers_are_uniform_within_each_set(monkeypatch, margin):
    """Over 2000 seeds, each set's tested registers are spread evenly over its
    members in pool order, in 50 bins of ranks: the chi-square statistic over
    the three sets, scaled for sampling without replacement, stays below its
    0.999 quantile: false-failure probability 0.001 (chi-square
    approximation).  Without a margin, a good share of the seeds redraw (an
    event count whose rate is not measured); with it, none does, which fails
    with probability at most 2000 x 1e-12 (_SHORT_LOG's Chernoff bound)."""
    gf, _ = cached_params(2, 1)
    n, bins, seeds = 3_000, 50, 2_000
    set_idx = np.random.default_rng(31).integers(0, 3, n, dtype=np.uint8)
    sizes = np.bincount(set_idx, minlength=3)
    test_counts = np.array([1, 8, 30])
    if margin is not None:
        monkeypatch.setattr(protocol, "_SHORT_LOG", margin)
    draws, raw_u32 = [], protocol._raw_u32
    monkeypatch.setattr(protocol, "_raw_u32", lambda rng, k: draws.append(k) or raw_u32(rng, k))
    hits = np.zeros(n, np.intp)
    for seed in range(seeds):
        pool = (np.zeros(n, np.uint8), np.zeros(n, np.uint8), np.arange(n))
        est = estimate_qer(gf, set_idx, sizes, pool, test_counts, 0.9, np.random.default_rng(seed))
        hits += 1
        hits[pool[2][: est.kept]] -= 1
    stat = 0.0
    for i, (size, want) in enumerate(zip(sizes, test_counts)):
        rank_bin = np.arange(size) * bins // size
        got = np.bincount(rank_bin, hits[set_idx == i], bins)
        expect = seeds * want * np.bincount(rank_bin, minlength=bins) / size
        stat += ((got - expect) ** 2 / expect).sum() * (size - 1) / (size - want)
    assert stat < chi2.ppf(0.999, 3 * (bins - 1))
    redrawn = len(draws) - seeds  # one 32-bit draw per attempt: the pool is one chunk
    assert redrawn == 0 if margin is None else redrawn > seeds // 5


def rank_sampler(gf, set_idx, set_sizes, pool, test_counts, abort_threshold, rng):
    """The sampler thinning replaced, as the reference for its law:
    rng.choice ranks among all the members of each set, located by one
    flatnonzero scan per set.  It never aborts, so its callers' runs must
    not."""
    tested = np.zeros(set_idx.size, dtype=bool)
    e_hats = []
    for i, (size, want) in enumerate(zip(set_sizes, test_counts)):
        chosen = np.flatnonzero(set_idx == i)[rng.choice(size, size=want, replace=False)]
        tested[chosen] = True
        e_hats.append(float((pool[0][chosen] != 0).mean()))
    kept = set_idx.size - int(tested.sum())
    for v in pool:
        v[:kept] = v[~tested]
    return protocol.EstimateResult(e_hats, qer_estimator(e_hats), None, kept)


@pytest.mark.statistical
def test_thinning_has_the_rank_samplers_law(monkeypatch):
    """1000 seeds of one N = 4 worst-case run, each with both samplers on the
    same sifted pool: the paired differences of the five e_hats have
    chi-square (5 df) below its 0.999 quantile and the round-1 survivors'
    |z| < 3.29; each variance ratio lies inside the F test's two-sided 0.999
    interval (per e_hat, split over the five sets).  False-failure
    probability at most 0.004 over the four assertions (chi-square, normal
    and F approximations, union bound); no run comes near the 0.99 abort
    threshold."""
    gf, _ = cached_params(2, 2)
    ch = worst_case_channel(gf, 0.6)
    cfg = make_config(2, 2, L=20_000, rng_seed=0, test_fraction=0.05, abort_threshold=0.99,
                      ep_rounds=1, pec_r=1)
    seeds = 1_000
    sides = []
    for sampler in (protocol.estimate_qer, rank_sampler):
        monkeypatch.setattr(protocol, "estimate_qer", sampler)
        reps = [run_protocol(replace(cfg, rng_seed=seed), ch) for seed in range(seeds)]
        assert not any(r.aborted for r in reps)
        sides.append((np.array([r.e_hats for r in reps]),
                      np.array([r.survivors_per_round[0] for r in reps], float)))
    (e_new, surv_new), (e_old, surv_old) = sides
    d = e_new - e_old
    z = d.mean(axis=0) / (d.std(axis=0, ddof=1) / np.sqrt(seeds))
    assert (z**2).sum() < chi2.ppf(0.999, 5)
    d = surv_new - surv_old
    assert abs(d.mean() / (d.std(ddof=1) / np.sqrt(seeds))) < norm.ppf(0.9995)
    tail = 0.001 / 2 / 5
    ratio = e_new.var(axis=0, ddof=1) / e_old.var(axis=0, ddof=1)
    assert (f.ppf(tail, seeds - 1, seeds - 1) < ratio).all()
    assert (ratio < f.ppf(1 - tail, seeds - 1, seeds - 1)).all()
    ratio = surv_new.var(ddof=1) / surv_old.var(ddof=1)
    assert f.ppf(0.0005, seeds - 1, seeds - 1) < ratio < f.ppf(0.9995, seeds - 1, seeds - 1)


def order_preserving_estimate(gf, set_idx, set_sizes, pool, test_counts, abort_threshold, rng):
    """estimate_qer's picks, from estimate_reference on the same generator,
    with the tested registers removed in pool order, so the untested
    registers keep their relative order: the reference order of the
    swap-remove law test."""
    tested, e_hats, _ = estimate_reference(set_idx, pool[0], test_counts, rng)
    kept = set_idx.size - int(tested.sum())
    for v in pool:
        v[:kept] = v[~tested]
    est = qer_estimator(e_hats)
    reason = (f"estimated QER {est:.4f} exceeds threshold {abort_threshold:.4f}"
              if est > abort_threshold else None)
    return protocol.EstimateResult(e_hats, est, reason, kept)


@pytest.mark.statistical
def test_swap_remove_order_has_the_pool_orders_law(monkeypatch):
    """1000 seeds of one N = 4 worst-case run (three rounds, r = 5), each run
    twice: with estimate_qer's swap-remove order and with the pool order of
    order_preserving_estimate.  The two take the same picks, so every field
    through the sift's label counts, and the generator state after testing,
    are equal bit for bit.  The fields read after testing move to a pairing
    of the same law, and agree:

    - survivors of each round: paired |z| below the two-sided 0.999 normal
      quantile split over the three rounds (null failure rate at most 0.001,
      by the union bound);
    - the pooled post-EP label counts of the two sides: the 2 x K chi-square
      of homogeneity below its 0.999 quantile (0.001 for independent sides;
      the shared sifted pools make the sides agree more, not less);
    - the phase residual rate: paired |z| below the two-sided 0.999 normal
      quantile (0.001).

    About 0.003 in all, each rate from the normal or chi-square
    approximation at 1000 seeds."""
    gf, _ = cached_params(2, 2)
    ch = worst_case_channel(gf, 0.75)
    cfg = make_config(2, 2, L=20_000, rng_seed=0, abort_threshold=0.99, ep_rounds=3, pec_r=5)
    seeds = 1_000
    pre = ("n_sifted", "set_sizes", "e_hats", "qer_estimate", "aborted", "empirical_sbmer",
           "empirical_ber", "post_sift_label_counts")
    sides = []
    for sampler in (protocol.estimate_qer, order_preserving_estimate):
        states = []

        def estimate(*args, _sampler=sampler):
            est = _sampler(*args)
            states.append(args[-1].bit_generator.state)
            return est

        monkeypatch.setattr(protocol, "estimate_qer", estimate)
        reps = [run_protocol(replace(cfg, rng_seed=seed), ch).to_dict() for seed in range(seeds)]
        assert not any(r["aborted"] for r in reps)
        labels = sum(np.rint(np.array(r["post_ep_label_dist"]) * r["survivors_per_round"][-1])
                     for r in reps)
        sides.append(([{k: r[k] for k in pre} for r in reps], states,
                      np.array([r["survivors_per_round"] for r in reps], float), labels,
                      np.array([r["phase_residual_rate"] for r in reps])))
    (pre_new, states_new, surv_new, lab_new, res_new), (pre_old, states_old, surv_old, lab_old,
                                                       res_old) = sides
    assert json.dumps(pre_new) == json.dumps(pre_old)
    assert states_new == states_old
    d = surv_new - surv_old
    z = d.mean(axis=0) / (d.std(axis=0, ddof=1) / np.sqrt(seeds))
    assert (abs(z) < norm.ppf(1 - 0.001 / 2 / 3)).all(), z
    table = np.array([lab_new, lab_old])
    table = table[:, table.sum(axis=0) > 0]
    want = table.sum(axis=1, keepdims=True) * table.sum(axis=0) / table.sum()
    assert ((table - want) ** 2 / want).sum() < chi2.ppf(0.999, table.shape[1] - 1)
    d = res_new - res_old
    assert abs(d.mean() / (d.std(ddof=1) / np.sqrt(seeds))) < norm.ppf(0.9995)


def test_undersized_set_aborts_the_run():
    rep = run_protocol(make_config(2, 1, L=5, rng_seed=1, test_fraction=None, test_count=1),
                       ChannelModel())
    assert rep.aborted
    assert rep.abort_reason == "set 0 holds 0 particles, cannot test 1"
    assert rep.e_hats == [] and rep.key_length == 0
    rep = run_protocol(make_config(2, 1, L=3_000, test_fraction=None, test_count=2_000),
                       ChannelModel())
    assert rep.aborted and rep.abort_reason.startswith("set 0 holds ")
    assert rep.abort_reason.endswith(" particles, cannot test 2000")


def test_exhausted_pool_reports_the_rounds_run():
    cfg = make_config(2, 2, L=60, rng_seed=0, test_fraction=None, test_count=1,
                      abort_threshold=0.9, ep_rounds=4)
    rep = run_protocol(cfg, ChannelModel(q=0.5))
    assert rep.aborted and rep.abort_reason == "register pool exhausted during purification"
    assert rep.survivors_per_round == [2, 1]
    assert rep.ep_rounds == 2


# Pre-purification fields of two fixed-seed runs: n_sifted and set_sizes
# recorded from the implementation that shuffled the pool and scanned it
# once per set; the fields that read the raw labels when those were first
# read from generator words (pauli-iid) and when the twirl's mask was
# first drawn from generator bytes (grouped qubit attack).
PINNED_PRE_EP = [
    (dict(p=2, n=2, L=100_000, rng_seed=1234, test_fraction=0.01, ep_rounds=1, pec_r=5),
     ("pauli-iid", 0.8),
     {"n_sifted": 20084, "set_sizes": [3990, 3937, 4057, 4059, 4041],
      "e_hats": [0.1282051282051282, 0.10256410256410256, 0.15, 0.1, 0.2],
      "qer_estimate": 0.1701923076923077, "empirical_sbmer": 0.15738896634136626,
      "empirical_ber": 0.07869448317068313,
      "post_sift_label_counts": [16125, 798, 0, 0, 803, 0, 756, 0, 0, 813, 789, 0, 0, 0, 0, 0]}),
    (dict(p=2, n=3, L=300_000, rng_seed=99, test_fraction=None, test_count=40, ep_rounds=2,
          pec_r=9),
     ("grouped-qubit-attack", 0.3),
     {"n_sifted": 33373,
      "set_sizes": [3636, 3682, 3815, 3689, 3733, 3656, 3807, 3657, 3698],
      "e_hats": [0.0, 0.25, 0.225, 0.275, 0.35, 0.275, 0.25, 0.375, 0.375],
      "qer_estimate": 0.296875, "empirical_sbmer": 0.23312258412489137,
      "empirical_ber": 0.13376082461870373,
      "post_sift_label_counts": [
          24633, 141, 137, 135, 130, 141, 124, 152, 131, 154, 139, 127, 145, 130, 128, 136,
          163, 143, 146, 147, 114, 113, 128, 125, 133, 133, 171, 128, 143, 132, 151, 130,
          133, 124, 134, 146, 134, 137, 154, 140, 151, 166, 140, 152, 132, 148, 164, 160,
          150, 131, 143, 138, 118, 131, 127, 134, 146, 114, 146, 141, 137, 171, 121, 127]}),
]


@pytest.mark.parametrize("kw,channel,want", PINNED_PRE_EP)
def test_pre_purification_fields_are_pinned(kw, channel, want):
    p, n = kw.pop("p"), kw.pop("n")
    gf, _ = cached_params(p, n)
    kind, value = channel
    if kind == "pauli-iid":
        ch = worst_case_channel(gf, value)
    else:
        ch = ChannelModel(q=value)
    got = run_protocol(make_config(p, n, **kw), ch).to_dict()
    assert not got["aborted"]
    assert json.dumps({k: got[k] for k in want}) == json.dumps(want)


# ---------------------------------------------------------------
# purification and majority vote stages
# ---------------------------------------------------------------

@pytest.mark.parametrize("p,n", FIELDS_TO_256)
def test_ep_round_phase_add_matches_add_table(p, n):
    # p = 2 adds the phase labels by XOR, odd p through the table
    gf = make_field(p, n)
    rng = np.random.default_rng(gf.N)
    a = rng.integers(0, 2, 4 * gf.N * gf.N + 1, dtype=np.uint8)  # half the pairs agree
    b = rng.integers(0, gf.N, a.size, dtype=np.uint8)
    a2, b2, _, _ = locc2_ep_round(gf, a, b, a, a)
    ctl = 2 * np.flatnonzero(a[0:-1:2] == a[1::2])
    assert a2.size == ctl.size > 0
    assert np.array_equal(b2, gf.add_table[b[ctl], b[ctl + 1]])


def test_ep_round_noiseless_halves_pool():
    gf, _ = cached_params(2, 1)
    rng = np.random.default_rng(5)
    n = 10_000
    z = np.zeros(n, dtype=np.uint8)
    s = rng.integers(0, 2, n, dtype=np.uint8)
    a2, b2, s2, bob2 = locc2_ep_round(gf, z, z, s, s.copy())
    assert a2.size == n // 2
    assert not a2.any() and not b2.any()
    assert (bob2 == s2).all()


@pytest.mark.statistical
def test_ep_round_never_keeps_mismatched_pairs():
    """The ledger stays sound, and the survivor count lies within 3 sd of
    its mean: false-failure probability 0.0027 (normal approximation)."""
    gf, _ = cached_params(2, 2)
    rng = np.random.default_rng(6)
    n = 20_000
    a = rng.integers(0, 4, n, dtype=np.uint8)
    b = rng.integers(0, 4, n, dtype=np.uint8)
    s = rng.integers(0, 4, n, dtype=np.uint8)
    bob = gf.add_table.astype(np.uint8)[s, a]
    a2, b2, s2, bob2 = locc2_ep_round(gf, a, b, s, bob)
    # ledger stays sound, which can only hold if kept pairs agreed
    assert (bob2 == gf.add_table.astype(np.uint8)[s2, a2]).all()
    # survival fraction matches sum_a P(a)^2 within 3 sigma
    p_agree = ((np.bincount(a, minlength=4) / n) ** 2).sum()
    sigma = np.sqrt((n / 2) * p_agree * (1 - p_agree))
    assert abs(a2.size - (n / 2) * p_agree) < 3 * sigma


@pytest.mark.statistical
def test_ep_round_empirical_matches_recursion():
    """One round on 400,000 worst-case labels: each of the four label rates
    lies within 3 sd of ep_step's, false-failure probability at most
    4 x 0.0027 = 0.011 (normal approximation, union bound)."""
    gf, _ = cached_params(2, 1)
    part = cached_partition(2, 1)
    d = worst_case_distribution(gf, part, 0.7)
    rng = np.random.default_rng(8)
    n = 400_000
    lab = rng.choice(4, size=n, p=d.rates.ravel())
    a, b = (lab // 2).astype(np.uint8), (lab % 2).astype(np.uint8)
    s = rng.integers(0, 2, n, dtype=np.uint8)
    bob = gf.add_table.astype(np.uint8)[s, a]
    a2, b2, _, _ = locc2_ep_round(gf, a, b, s, bob)
    want = ep_step(d).rates
    emp = np.bincount(a2.astype(int) * 2 + b2.astype(int), minlength=4) / a2.size
    for idx in range(4):
        p_ = want.ravel()[idx]
        sigma = np.sqrt(p_ * (1 - p_) / a2.size)
        assert abs(emp[idx] - p_) <= 3 * sigma + 1e-12


def test_pec_majority_clean_ledger():
    gf, _ = cached_params(2, 1)
    rng = np.random.default_rng(2)
    n = 99
    z = np.zeros(n, dtype=np.uint8)
    s = rng.integers(0, 2, n, dtype=np.uint8)
    out = pec_majority(gf, z, z, s, s.copy(), 9)
    assert (out["alice_key"] == out["bob_key"]).all()
    assert not out["spin_sums"].any() and not out["phase_votes"].any()


def test_pec_majority_phase_without_spin():
    # spin sums zero: digits agree even though phase errors are present
    gf, _ = cached_params(2, 1)
    a = np.zeros(5, dtype=np.uint8)
    b = np.array([1, 1, 1, 0, 0], dtype=np.uint8)
    s = np.array([0, 1, 0, 1, 1], dtype=np.uint8)
    out = pec_majority(gf, a, b, s, s.copy(), 5)
    assert (out["alice_key"] == out["bob_key"]).all()
    assert out["phase_votes"][0] == 1


def test_pec_majority_validates_r():
    gf, _ = cached_params(2, 1)
    z = np.zeros(10, dtype=np.uint8)
    with pytest.raises(ConfigError):
        pec_majority(gf, z, z, z, z, 4)


# ---------------------------------------------------------------
# full protocol
# ---------------------------------------------------------------

def test_noiseless_run_completes():
    rep = run_protocol(make_config(2, 1, L=100_000), ChannelModel())
    assert not rep.aborted
    assert rep.keys_match and rep.key_length > 0
    assert rep.qer_estimate == 0.0
    assert rep.analytic_target_met


def test_zero_error_run_at_delta_zero_gets_the_zero_bound():
    # e00_eff = 1 - 0 - 0 = 1 exactly lies in the bounds' domain, where both
    # residual bounds are 0: the first r meets the target before any round
    rep = run_protocol(make_config(2, 2, L=200_000, rng_seed=1, delta=0.0), ChannelModel())
    assert rep.qer_estimate == 0.0 and not rep.aborted
    assert rep.ep_rounds == 0 and rep.pec_r == 1 and rep.analytic_target_met is True
    assert rep.analytic_spin_bound == 0.0 and rep.analytic_phase_bound == 0.0
    assert rep.keys_match and rep.key_length == 39497


def test_noiseless_run_qutrit():
    rep = run_protocol(
        make_config(3, 1, L=10_000, abort_threshold=0.5), ChannelModel()
    )
    assert not rep.aborted and rep.keys_match and rep.key_length > 0


def test_determinism_bit_identical():
    cfg = make_config(2, 2, L=50_000, ep_rounds=1, pec_r=5)
    gf, _ = cached_params(2, 2)
    ch = worst_case_channel(gf, 0.8)
    r1 = run_protocol(cfg, ch)
    r2 = run_protocol(cfg, ch)
    assert json.dumps(r1.to_dict(), sort_keys=True) == json.dumps(r2.to_dict(), sort_keys=True)


def test_different_seeds_differ():
    c1 = make_config(2, 1, L=50_000, rng_seed=1)
    c2 = make_config(2, 1, L=50_000, rng_seed=2)
    r1, r2 = run_protocol(c1, ChannelModel()), run_protocol(c2, ChannelModel())
    assert r1.n_sifted != r2.n_sifted or r1.set_sizes != r2.set_sizes


def test_high_qer_aborts():
    gf, _ = cached_params(2, 1)
    ch = worst_case_channel(gf, 0.5)
    rep = run_protocol(make_config(2, 1, L=200_000), ch)
    assert rep.aborted and "threshold" in rep.abort_reason


def test_below_threshold_proceeds():
    gf, _ = cached_params(2, 1)
    ch = worst_case_channel(gf, 0.75)
    rep = run_protocol(make_config(2, 1, L=200_000, ep_rounds=2, pec_r=9), ch)
    assert not rep.aborted
    assert rep.key_length > 0


@pytest.mark.statistical
def test_ep_survival_statistics():
    """Round-1 survivors of one run lie within 4 sd of their mean:
    false-failure probability 6.3e-5 (normal approximation)."""
    gf, _ = cached_params(2, 2)
    d = worst_case_distribution(gf, cached_partition(2, 2), 0.6)
    rep = run_protocol(make_config(2, 2, L=500_000, ep_rounds=1, pec_r=5),
                       ChannelModel(label_rates=d.rates))
    pool = rep.n_sifted - sum(max(1, int(c * 0.01)) for c in rep.set_sizes)
    p_agree = float((d.rates.sum(axis=1) ** 2).sum())
    expect = (pool // 2) * p_agree
    sigma = np.sqrt((pool // 2) * p_agree * (1 - p_agree))
    assert abs(rep.survivors_per_round[0] - expect) < 4 * sigma


@pytest.mark.statistical
def test_post_ep_distribution_matches_recursion():
    """Each of the four post-round label rates of one run lies within 4 sd of
    ep_step's: false-failure probability at most 4 x 6.3e-5 = 2.5e-4
    (normal approximation, union bound)."""
    gf, _ = cached_params(2, 1)
    d = worst_case_distribution(gf, cached_partition(2, 1), 0.7)
    rep = run_protocol(make_config(2, 1, L=1_000_000, ep_rounds=1, pec_r=9),
                       ChannelModel(label_rates=d.rates))
    want = ep_step(d).rates.ravel()
    emp = np.array(rep.post_ep_label_dist)
    n = rep.survivors_per_round[-1]
    for idx in range(4):
        sigma = np.sqrt(want[idx] * (1 - want[idx]) / n)
        assert abs(emp[idx] - want[idx]) <= 4 * sigma + 1e-12


@pytest.mark.statistical
def test_adjacent_pairing_matches_recursion_across_seeds():
    """Over 200 seeds, round-1 survivors and the pooled post-round label
    histogram agree with ep_step: each chi-square statistic stays below
    its 0.999 quantile.

    With 7-8 tests per set, about one trial in 1600 aborts on its QER
    estimate, so at most 2 of the 200 may (3 or more have probability about
    3e-4).  The estimate reads only the tested registers, so the untested
    pool of every trial keeps its law, and the chi-squares run on the
    trials that ran.  False-failure probability about 0.0023 in all: 0.001
    per chi-square (approximation) and 3e-4 for the abort count."""
    gf, _ = cached_params(2, 2)
    d = worst_case_distribution(gf, cached_partition(2, 2), 0.75)
    cfg = make_config(2, 2, L=20_000, rng_seed=2024, ep_rounds=1, pec_r=1)
    reps = run_trials(cfg, ChannelModel(label_rates=d.rates), 200)
    aborts = [rep.abort_reason for rep in reps if rep.aborted]
    assert len(aborts) <= 2 and all(r.startswith("estimated QER") for r in aborts), aborts
    reps = [rep for rep in reps if not rep.aborted]
    p_agree = float((d.rates.sum(axis=1) ** 2).sum())
    surv_stat, labels = 0.0, np.zeros(16)
    for rep in reps:
        assert rep.ep_rounds == 1
        pool = rep.n_sifted - sum(max(1, int(c * 0.01)) for c in rep.set_sizes)
        pairs, surv = pool // 2, rep.survivors_per_round[0]
        surv_stat += (surv - pairs * p_agree) ** 2 / (pairs * p_agree * (1 - p_agree))
        labels += np.rint(np.array(rep.post_ep_label_dist) * surv)
    assert surv_stat < chi2.ppf(0.999, len(reps))
    want = ep_step(d).rates.ravel() * labels.sum()
    cells = want > 0
    assert labels[~cells].sum() == 0
    label_stat = float(((labels[cells] - want[cells]) ** 2 / want[cells]).sum())
    assert label_stat < chi2.ppf(0.999, cells.sum() - 1)


def n16_grouped_attack_config(L=15_000_000):
    """N=16 grouped attack; the default L=1.5e7 gives about 6.7 blocks of
    sifted registers."""
    gf, _ = cached_params(2, 4)
    return ProtocolConfig(gf=gf, L=L, rng_seed=3, test_count=int(0.01 * L / 289),
                          delta=0.0065, ep_rounds=4, pec_r=25)


def test_multi_block_report_is_pinned():
    # the pinned CLI reports fit in one or two blocks at N <= 8
    rep = run_protocol(n16_grouped_attack_config(), ChannelModel(q=0.84))
    assert rep.n_sifted > 3 * _kernels.BLOCK
    assert rep.survivors_per_round == [44948, 9495, 4554, 2276] and rep.key_length == 91
    digest = hashlib.md5(json.dumps(rep.to_dict(), sort_keys=True).encode()).hexdigest()
    assert digest == "fe0750f10b54b3c173659d0cc16e5d80"


def test_peak_memory_per_sifted_register():
    # traced (NumPy-reported) peak of one N=16 grouped-attack run: 5.97 B with
    # four pool-sized byte arrays (set index, then Bob's value; Alice's value;
    # raw label, then a; b), run alone; 0.7 B more when sift wrote a to an
    # array of its own
    cfg = n16_grouped_attack_config()
    tracemalloc.start()
    try:
        rep = run_protocol(cfg, ChannelModel(q=0.84))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert not rep.aborted and rep.keys_match
    assert peak / rep.n_sifted <= 6.3


def test_sift_peak_memory_at_n251():
    # N = 251 sifts a small pool through (N+1)N^2-entry count arrays, 127 MB
    # each in intp: the traced peak read 323 MB (451 MB when the sifted label
    # counts came from a float-weighted bincount over one more such array)
    argv = ["simulate", "--p", "251", "--n", "1", "--L", "3000000", "--channel", "pauli-iid",
            "--qer", "0.1", "--abort-threshold", "0.5", "--seed", "1"]
    tracemalloc.start()
    try:
        assert cli.main(argv) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 360e6  # the measured 323 MB plus 11%


def _traced_peak(L):
    # at L = 3e7 this seed's estimate (0.7945) passes the default abort
    # threshold (0.7940); a higher one lets both runs reach every stage
    cfg = replace(n16_grouped_attack_config(L), abort_threshold=0.9)
    tracemalloc.start()
    try:
        rep = run_protocol(cfg, ChannelModel(q=0.84))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert not rep.aborted and rep.keys_match
    return peak, rep.n_sifted


def test_peak_memory_slope_per_sifted_register():
    # the difference of two pool sizes cancels the fixed per-block buffers;
    # four pool-sized byte arrays remain (set index, then Bob's value; Alice's
    # value; raw label, then a; b) and read 4.00 B, run alone; a fifth, as when
    # sift wrote a to its own, reads 5.00 B
    peak1, n1 = _traced_peak(15_000_000)
    peak2, n2 = _traced_peak(30_000_000)
    assert (peak2 - peak1) / (n2 - n1) <= 4.75


@pytest.mark.parametrize("p,n,kind,block", [
    pytest.param(2, 2, "pauli-iid", 997, id="pauli-iid"),
    pytest.param(2, 2, "grouped-qubit-attack", 997, id="grouped-qubit-attack"),
    pytest.param(2, 2, "pauli-iid", 7, id="pauli-iid-block-7"),
    pytest.param(2, 2, "grouped-qubit-attack", 7, id="grouped-qubit-attack-block-7"),
    # N = 17 draws uint16 flat labels
    pytest.param(17, 1, "pauli-iid", 997, id="pauli-iid-N17"),
    pytest.param(17, 1, "pauli-iid", 7, id="pauli-iid-N17-block-7"),
])
def test_block_size_leaves_reports_unchanged(monkeypatch, p, n, kind, block):
    # blocked twirl draws and the blocked sift keep every field
    gf, _ = cached_params(p, n)
    if kind == "pauli-iid":
        ch = worst_case_channel(gf, 0.8)
    else:
        ch = ChannelModel(q=0.3)
    cfg = make_config(p, n, L=50_000, ep_rounds=1, pec_r=5, abort_threshold=None if p == 2 else 0.5)
    want = run_protocol(cfg, ch).to_dict()
    monkeypatch.setattr(_kernels, "BLOCK", block)
    assert run_protocol(cfg, ch).to_dict() == want


def test_bounds_built_once_per_round_count(monkeypatch):
    """An automatic-parameter run builds the worst-case distribution once,
    and its closed form and the bounds' r-free terms (the spin error rate
    among them) once per round count tried, not once per candidate r."""
    calls, reads = {"worst_case_distribution": [], "ep_closed_form": []}, []
    for name, log in calls.items():
        fn = getattr(protocol, name)
        monkeypatch.setattr(protocol, name, lambda *a, _fn=fn, _log=log: _log.append(a) or _fn(*a))
    spin_error_rate = ErrorDistribution.spin_error_rate
    monkeypatch.setattr(ErrorDistribution, "spin_error_rate",
                        lambda d: reads.append(d) or spin_error_rate(d))
    gf, _ = cached_params(2, 2)
    ch = worst_case_channel(gf, 0.6)
    cfg = make_config(2, 2, L=1_000_000, rng_seed=5)
    rep = run_protocol(cfg, ch)
    # every round is tried and the fallback r is searched too
    assert not rep.aborted and rep.analytic_target_met is False
    assert rep.ep_rounds == cfg.ep_rounds_max
    tried = rep.ep_rounds + 1  # round counts 0 .. ep_rounds_max
    assert len(calls["worst_case_distribution"]) == 1
    assert [k for _, k in calls["ep_closed_form"]] == list(range(tried))
    assert len(reads) == tried


def test_field_setup_runs_once_per_field(monkeypatch, capsys):
    # M's parameters and the label classes are found once per field, not per
    # trial, and the CLI's pauli-iid channel takes its classes from the same cache
    found, found_by_cli = [], []
    monkeypatch.setattr(protocol, "find_char_poly",
                        lambda gf, _fn=protocol.find_char_poly: found.append(gf) or _fn(gf))
    monkeypatch.setattr(cli, "find_char_poly",
                        lambda gf, _fn=cli.find_char_poly: found_by_cli.append(gf) or _fn(gf))
    protocol.field_setup.cache_clear()
    for p, n in ((2, 1), (2, 2)):
        cfg = make_config(p, n, L=30_000)
        reps = run_trials(cfg, ChannelModel(), 5, workers=1)
        assert all(not r.aborted for r in reps)
    assert cli.main(["simulate", "--p", "2", "--n", "2", "--L", "30000", "--channel", "pauli-iid",
                     "--qer", "0.1", "--seed", "1"]) == 0
    assert json.loads(capsys.readouterr().out)["result"]["keys_match"] is True
    assert found == [make_field(2, 1), make_field(2, 2)] and found_by_cli == []
    params, partition = protocol.field_setup(make_field(2, 2))
    assert partition == tuple(cached_partition(2, 2)) and params == cached_params(2, 2)[1]


@pytest.mark.statistical
def test_qer_030_completes_with_low_mismatch_rate():
    # QER 0.30 sits below the N=2 tolerance of ~0.4146: the protocol must
    # complete on every seed with a digit mismatch rate under eps_I / ell
    # (an event over 20 trials whose false-failure rate is not measured)
    gf, _ = cached_params(2, 1)
    ch = worst_case_channel(gf, 0.7)
    cfg = make_config(2, 1, L=1_000_000, ep_rounds=4, pec_r=25)
    for rep in run_trials(cfg, ch, 20):
        assert not rep.aborted
        assert rep.key_length > 0
        rate = rep.key_mismatch_count / rep.key_length
        assert rate <= cfg.epsilon_i / rep.key_length


def test_run_trials_deterministic_and_distinct():
    cfg = make_config(2, 1, L=30_000)
    reps = run_trials(cfg, ChannelModel(), 3)
    again = run_trials(cfg, ChannelModel(), 3)
    for r1, r2 in zip(reps, again):
        assert r1.to_dict() == r2.to_dict()
    assert len({r.seed for r in reps}) == 3


def test_run_trials_parallel_matches_serial():
    cfg = make_config(2, 1, L=30_000)
    serial = run_trials(cfg, ChannelModel(), 4, workers=1)
    parallel = run_trials(cfg, ChannelModel(), 4, workers=4)
    for r1, r2 in zip(serial, parallel):
        assert r1.to_dict() == r2.to_dict()


def test_run_trials_caps_threads_at_cpu_count(monkeypatch):
    # a recording stand-in for the executor: no thread is started
    seen = []

    class Recorder:
        def __init__(self, max_workers):
            seen.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(protocol, "ThreadPoolExecutor", Recorder)
    cfg = make_config(2, 1, L=30_000)
    serial = run_trials(cfg, ChannelModel(), 3, workers=1)
    # the CPUs this process may run on, not the host's
    monkeypatch.setattr(protocol.os, "cpu_count", lambda: 8)
    monkeypatch.setattr(protocol.os, "sched_getaffinity", lambda pid: {0}, raising=False)
    pinned = run_trials(cfg, ChannelModel(), 3, workers=10_000)
    monkeypatch.setattr(protocol.os, "sched_getaffinity", lambda pid: {0, 5, 7}, raising=False)
    three = run_trials(cfg, ChannelModel(), 3, workers=10_000)
    # without an affinity call, the host's count
    monkeypatch.delattr(protocol.os, "sched_getaffinity")
    monkeypatch.setattr(protocol.os, "cpu_count", lambda: 2)
    capped = run_trials(cfg, ChannelModel(), 3, workers=10_000)
    monkeypatch.setattr(protocol.os, "cpu_count", lambda: None)
    unknown = run_trials(cfg, ChannelModel(), 3, workers=10_000)
    assert seen == [1, 1, 3, 2, 1]  # one CPU, or None counted as one: a one-thread pool
    runs = [serial, pinned, three, capped, unknown]
    assert all([r.to_dict() for r in run] == [r.to_dict() for r in serial] for run in runs)


# ---------------------------------------------------------------
# configuration validation
# ---------------------------------------------------------------

def test_config_requires_one_test_size():
    with pytest.raises(ConfigError):
        make_config(2, 1, test_count=10).validate()  # both set (fraction is default)


def test_config_p_odd_needs_threshold():
    cfg = make_config(3, 1)
    with pytest.raises(ConfigError):
        cfg.validate()


@pytest.mark.parametrize("kw", [dict(delta=float("nan")), dict(delta=-0.5), dict(delta=1.0),
                                dict(epsilon_i=float("nan")), dict(epsilon_i=0.0), dict(epsilon_i=1.0)])
def test_config_rejects_delta_and_epsilon_outside_their_ranges(kw):
    with pytest.raises(ConfigError):
        make_config(2, 1, abort_threshold=0.3, **kw).validate()


def test_config_rejects_even_r():
    with pytest.raises(ConfigError):
        make_config(2, 1, pec_r=4).validate()


def test_config_rejects_more_sets_than_8_bit_indices_hold():
    # N = 256 has 257 sets; N = 251, the largest field below, is accepted
    cfg = ProtocolConfig(make_field(2, 8), L=1000, rng_seed=1, test_fraction=0.01,
                         abort_threshold=0.5)
    with pytest.raises(ConfigError, match="N <= 255"):
        cfg.validate()
    replace(cfg, gf=make_field(251, 1)).validate()


@pytest.mark.parametrize("R", [0, 257, 1000])
def test_uint8_below_rejects_ranges_outside_a_byte(R):
    with pytest.raises(ValueError, match="1 <= R <= 256"):
        protocol._uint8_below(np.random.default_rng(0), R, 10)
