"""Seeded Monte-Carlo execution of the prepare-and-measure key exchange.

Every transmitted particle is tracked classically through a hidden
Pauli frame: the channel assigns a raw label (a, b), sifting conjugates
it by the power of the basis-cycling unitary both parties applied, and
the purification / majority-vote stages transform it by the exact error
propagation rules.  A channel (ChannelModel) is one of two raw-label
laws: an explicit (N, N) law, exact for Pauli channels, or the
measurement twirl with probability q, exact for measure-and-resend: raw
label (0, c) with c uniform, whose sift conjugation reproduces the
mutually-unbiased outcome statistics, including the no-disturbance case
when the applied power fixes the standard basis.  The noiseless channel
is the twirl at q = 0.  The CLI's five channel names map onto these two.

Only sifted particles are materialized: the sifted count is drawn as a
Binomial(L, 1/(N+1)) and set indices uniformly, which has exactly the
law of simulating all L transmissions and discarding the mismatches.
The pool's uniform 8-bit variates (set index, Alice's value, twirl
phase) come from _uint8_below: NumPy's own rule for
Generator.integers(..., dtype=np.uint8), vectorised over the 32-bit
halves of the bit generator's raw 64-bit outputs (_raw_u32).  It gives
the same variates and leaves the generator in the same state, so reports
for a fixed seed are byte-identical to drawing them with
Generator.integers.  The twirl's measured mask comes from generator
bytes too, by an exact rule that draws a double only where a byte
leaves the outcome open (sample_raw_labels gives its law).  An explicit
law's raw labels come from _categorical: the inverse of
Generator.choice's cdf at U = (w + V) 2^-bits, for one generator word w
per label (16 bits, 32 above 256 labels) and a Generator.random double V
drawn only where a cdf entry lies strictly inside the word's interval.
U is uniform on a grid finer than choice's 2^-53, so each label's
probability is within 2^-53 of its step of the normalised float cdf, as
choice's is: the law is choice's, the stream is not.

run_protocol calls the stages in order, on plain arrays; the first four
walk the pool a block of registers at a time.  sample_raw_labels draws the
flat raw labels; sift conjugates them into (a, b), writing a over the raw
labels it has read, and counts each set; estimate_qer picks each set's
test registers by thinning (a register is marked when one generator byte
is below k; each set tests a uniform choice of its marked members) and
removes them from (a, b, s) by swap-remove, leaving the untested
registers packed at the front; run_protocol then sets Bob's value s + a
on those alone, in the set-index buffer that testing has spent;
locc2_ep_round runs once per purification round; pec_majority extracts
the key digits.  The pool-sized arrays are four: the set indices, Alice's
values, the raw labels and b.

No stage shuffles the pool.  Every channel is i.i.d. per particle, and
testing picks a uniform subset of each set blind to labels (see
estimate_qer), so a permutation fixing the tested set T pointwise keeps
the joint law of the pool and the picks: given T, the untested registers
are exchangeable, and swap-remove's order, read off T alone, keeps their
law, also given no abort (which reads only tested labels).  Pairing
adjacent registers (purification) or grouping consecutive ones (majority
vote) then has the law of doing so after a uniform shuffle, and
survivors stay exchangeable.  A channel that is not i.i.d. must shuffle
first.  Testing the first members of each set would break this: sets of
sizes (3, 2), one test each, leave the orders AAB/ABA/BAA 4/3/3 times;
so would sorting the kept registers by a label.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from functools import cache
from typing import Optional

import numpy as np

from . import _kernels
from .exceptions import ConfigError, InvariantViolation
from .fields import GF
from .rates import (PecBoundTerms, _bounds_apply, ep_closed_form, pec_bound_terms, qer_estimator,
                    thresholds, worst_case_distribution)
from .toperator import SymplecticParams, choose_M, conjugation_tables, equiv_classes, find_char_poly


# ----------------------------------------------------------------------
# Channel / attack models
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class ChannelModel:
    """A raw-label law applied i.i.d. per transmitted particle; unshuffled
    pairing relies on that (module docstring).

    label_rates, when set, is an explicit (N, N) law over the raw labels
    (a, b), and q must stay 0.  Otherwise each particle suffers the
    measurement twirl, raw label (0, c) with c uniform, with probability q,
    and q alone is read.  ChannelModel() is the noiseless channel.
    """

    q: float = 0.0
    label_rates: Optional[np.ndarray] = None

    def validate(self, gf: GF) -> None:
        if not 0.0 <= self.q <= 1.0:
            raise ConfigError("attack probabilities must lie in [0, 1]")
        if self.label_rates is not None:
            if self.q != 0.0:
                raise ConfigError("a channel with explicit label_rates does not read q; leave it 0")
            if self.label_rates.shape != (gf.N, gf.N):
                raise ConfigError("pauli-iid channel needs an (N, N) label distribution")
            if not (self.label_rates >= 0).all():  # NaN fails too
                raise ConfigError("pauli-iid label rates must be nonnegative")
            if abs(float(self.label_rates.sum()) - 1.0) > 1e-9:
                raise ConfigError("pauli-iid label distribution must sum to 1")


def _raw_u32(rng: np.random.Generator, k: int) -> np.ndarray:
    """rng.integers(0, 2**32, size=k, dtype=np.uint32), bit for bit, leaving
    rng in the same state, read from the bit generator's raw 64-bit outputs.
    NumPy takes each 32-bit output as the low half of a fresh 64-bit one and
    buffers the high half (state has_uint32, uinteger) for the next 32-bit
    draw, rng.choice's included: a half buffered on entry comes first, and
    an odd count of the k' still needed leaves the last high half buffered."""
    bg = rng.bit_generator
    state = bg.state
    head = min(k, state["has_uint32"])
    raw = bg.random_raw(-(-(k - head) // 2)).astype("<u8", copy=False).view("<u4")
    out = raw[: k - head]
    if head:
        out = np.concatenate((np.array([state["uinteger"]], out.dtype), out))
    if k:
        state = bg.state
        state["has_uint32"] = (k - head) % 2
        state["uinteger"] = int(raw[-1]) if raw.size else state["uinteger"]
        bg.state = state
    return out


def _uint8_below(rng: np.random.Generator, R: int, count: int, scale=None) -> np.ndarray:
    """rng.integers(0, R, size=count, dtype=np.uint8) for 1 <= R <= 256, bit
    for bit, leaving rng in the same state, but vectorised.  Given *scale*,
    an array of count entries, each variate is multiplied into its entry
    instead, a draw at a time, and scale is returned.

    NumPy draws each variate from the next little-endian byte of successive
    32-bit outputs, starting a fresh output per call, by Lemire's rule
    (ACM TOMACS 29(1), 2019): m = byte * R, rejected while m & 255 is below
    (256 - R) % R, else m >> 8.  Here each draw takes ceil(w / 4) outputs,
    for the d variates still missing and w the lesser of d and the length of
    the pool's blocks (_kernels.blocks): NumPy must read at least ceil(d / 4)
    to fill them, so no output is taken that NumPy would not take, and only
    the last draw's surplus is dropped, as NumPy drops the rest of its last
    output.  The rule is an exact uniform sampler whatever NumPy's own
    algorithm, so the law of the draws never depends on it.
    """
    if not 1 <= R <= 256:
        raise ValueError(f"8-bit variates cover 1 <= R <= 256 values, got R = {R}")
    out = np.empty(count, np.uint8) if scale is None else scale
    if R == 1:  # NumPy draws nothing for a single value
        out[...] = 0
        return out
    threshold = (256 - R) % R  # 0 when R divides 256: nothing is rejected
    shift = 9 - R.bit_length()  # m >> 8 = byte >> shift when R = 2^(8 - shift)
    step = _kernels.blocks(count, 4)[0].stop
    filled = 0
    while filled < count:
        byte = _raw_u32(rng, -(-min(step, count - filled) // 4)).view(np.uint8)
        if threshold == 0:
            vals = byte[: count - filled]
            vals >>= shift
        else:
            m = byte.astype(np.uint16)
            m *= R
            keep = m.astype(np.uint8) >= threshold  # m & 255
            m >>= 8
            vals = m.astype(np.uint8)[keep][: count - filled]
        dst = out[filled : filled + vals.size]
        if scale is None:
            dst[...] = vals
        else:
            dst *= vals
        filled += vals.size
    return out


def _categorical(rng: np.random.Generator, p: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Fill *out* with i.i.d. labels of law p: the inverse of
    Generator.choice's cdf, p.cumsum() / its last entry, at
    U = (w + V) 2^-bits, for one generator word w per label (bits = 16, or
    32 above 256 labels) and a Generator.random double V.

    U is uniform on the 2^-(bits + 53) grid, so each label's probability
    is within 2^-53 of its step of the float cdf, as choice's is on its
    2^-53 grid.  With C = cdf 2^bits (exact), the label is #{C_j <= w}
    unless an entry lies strictly inside (w, w + 1).  Only those words, at
    most (p.size - 1) / 2^bits of them, keep state and draw V, after the
    block loop in pool order, so the stream does not depend on
    _kernels.BLOCK.

    A table of nb buckets (a power of two, >= 64 per label, at most 2^16)
    answers a word from its top bits when no scaled cdf entry lies strictly
    inside its bucket; the rest hold the sentinel and are searched on the
    integer word in their block.  The sentinel is p.size where out's dtype
    has room for it, else the least likely label: a word that gets it is
    searched too, so it costs time, not exactness.
    """
    K = p.size
    bits = 16 if K <= 256 else 32
    word = np.dtype(f"<u{bits // 8}")
    C = p.cumsum()
    C /= C[-1]
    nb = 1 << min(16, (64 * K - 1).bit_length())
    shift = bits + 1 - nb.bit_length()  # a word's bucket is w >> shift
    sentinel = K if K <= np.iinfo(out.dtype).max else int(p.argmin())
    # the table in bucket units (scaling by a power of two is exact); an
    # entry is <= b exactly when its ceiling is
    C *= nb
    table = np.bincount(np.ceil(C).astype(np.intp), minlength=nb + 1).cumsum()[:nb]
    table = table.astype(out.dtype)
    table[C[C != np.floor(C)].astype(np.intp)] = sentinel  # entries strictly inside
    C *= 2 ** bits // nb
    # C_j <= w exactly when ceil(C_j) <= w, never for C_j > 2^bits - 1
    keys = np.ceil(C[C <= 2**bits - 1]).astype(word)
    walk = _kernels.blocks(out.size, 4)  # whole 32-bit outputs per block
    idx = np.empty(walk[0].stop, np.intp)

    def fill(blk):
        # one block's labels; returns the positions and words left to refine
        lab = out[blk]
        w = _raw_u32(rng, -(-lab.size * bits // 32)).view(word)[: lab.size]
        ib = idx[: lab.size]
        np.right_shift(w, shift, out=ib)
        np.take(table, ib, out=lab, mode="clip")
        # the index is spent: its buffer holds the mask
        at = np.flatnonzero(np.equal(lab, sentinel, out=ib.view(bool)[: lab.size]))
        w = w[at]  # only the table-ambiguous words are kept
        lab[at] = keys.searchsorted(w, "right")  # j = #{C_j <= w}, so C[j] > w
        gap = C[lab[at]]
        gap -= w
        inside = np.flatnonzero(gap < 1)  # C[j] < w + 1
        return at[inside] + blk.start, w[inside]

    parts = [fill(blk) for blk in walk]
    pos, w = (np.concatenate(part) for part in zip(*parts))
    w = w.astype(float)  # w + 1 is exact
    v = rng.random(pos.size)
    # the entries inside (w, w + 1) are C[lo:hi]; C_j - w is exact there
    # (Sterbenz), and C_j <= w + V counts exactly when C_j - w <= V
    lo, hi = C.searchsorted(w, "right"), C.searchsorted(w + 1, "left")
    while (live := lo < hi).any():
        mid = (lo + hi) >> 1
        up = C.take(mid) - w <= v
        lo = np.where(live & up, mid + 1, lo)
        hi = np.where(live & ~up, mid, hi)
    out[pos] = lo
    return out


def sample_raw_labels(channel: ChannelModel, gf: GF, count: int, rng: np.random.Generator):
    """Raw (pre-sift) error labels (a, b) of *count* particles, as the flat
    label a*N + b in the smallest unsigned dtype that holds N*N - 1.  The
    caller validates the channel.

    An explicit law's labels come from _categorical.  The noiseless
    channel, the twirl at q = 0, draws nothing: every label is 0.  The
    twirl measures a register when its generator byte is below
    t = floor(256 q) or, for the 1/256 whose byte equals t, when one
    rng.random double, drawn after the block loop in pool order (so the
    stream does not depend on _kernels.BLOCK), is below 256 q - t, which is
    exact (Sterbenz).  P(measured) is ceil(q 2^61) / 2^61, where
    rng.random(count) < q gives ceil(q 2^53) / 2^53: they differ by less
    than 2^-53, and are equal for q >= 1/2.  The measured registers then
    take the uniform phase c from _uint8_below, multiplied into the 0/1
    mask a draw at a time.
    """
    N = gf.N
    dtype = np.min_scalar_type(N * N - 1)
    if channel.label_rates is not None:
        p = channel.label_rates.ravel() / channel.label_rates.ravel().sum()
        return _categorical(rng, p, np.empty(count, dtype))
    if channel.q == 0:
        return np.zeros(count, dtype)
    # measurement twirl: raw label (0, c), c uniform over GF(N)
    t = math.floor(256 * channel.q)
    out = np.empty(count, dtype)
    ties = []
    for blk in _kernels.blocks(count, 4):  # whole 32-bit outputs per block
        mask = out[blk]
        byte = _raw_u32(rng, -(-mask.size // 4)).view(np.uint8)[: mask.size]
        np.less(byte, t, out=mask.view(bool) if mask.itemsize == 1 else mask)  # 1 where measured
        ties.append(np.flatnonzero(byte == t) + blk.start)
    ties = np.concatenate(ties)
    out[ties] = rng.random(ties.size) < 256 * channel.q - t
    return _uint8_below(rng, N, count, scale=out)


# ----------------------------------------------------------------------
# Protocol configuration / report
# ----------------------------------------------------------------------

@dataclass
class ProtocolConfig:
    gf: GF
    L: int
    rng_seed: int
    test_count: Optional[int] = None     # per set; exclusive with test_fraction
    test_fraction: Optional[float] = None
    delta: float = 0.01
    epsilon_i: float = 0.01
    abort_threshold: Optional[float] = None  # default e_qer(N) - delta for p = 2
    ep_rounds_max: int = 4
    ep_rounds: Optional[int] = None      # explicit round count (overrides the rule)
    pec_r: Optional[int] = None          # explicit odd repetition count

    def resolved_abort_threshold(self) -> float:
        if self.abort_threshold is not None:
            return self.abort_threshold
        if self.gf.p != 2:
            raise ConfigError(
                "no closed-form QER threshold exists for p > 2; pass abort_threshold explicitly"
            )
        return thresholds(self.gf.N).e_qer - self.delta

    def validate(self) -> None:
        if self.gf.N + 1 > 256:  # the N + 1 set indices are 8-bit variates (_uint8_below)
            raise ConfigError(
                f"simulation supports N <= 255 (N + 1 <= 256 sets), got N = {self.gf.N}")
        if not 1 <= self.L < 2**63:  # the binomial sift count takes a C long
            raise ConfigError(f"L must lie in [1, 2^63), got {self.L}")
        if (self.test_count is None) == (self.test_fraction is None):
            raise ConfigError("exactly one of test_count / test_fraction must be set")
        if self.test_fraction is not None and not 0.0 < self.test_fraction < 1.0:
            raise ConfigError("test_fraction must lie in (0, 1)")
        if self.test_count is not None and self.test_count < 1:
            raise ConfigError("test_count must be positive")
        if not 0.0 <= self.delta < 1.0:  # NaN fails too
            raise ConfigError(f"delta must lie in [0, 1), got {self.delta}")
        if not 0.0 < self.epsilon_i < 1.0:
            raise ConfigError(f"epsilon_i must lie in (0, 1), got {self.epsilon_i}")
        thr = self.resolved_abort_threshold()
        if not 0.0 < thr < 1.0:
            raise ConfigError("abort threshold must lie in (0, 1)")
        if self.pec_r is not None and (self.pec_r < 1 or self.pec_r % 2 == 0):
            raise ConfigError("pec_r must be odd and >= 1")
        if self.ep_rounds is not None and self.ep_rounds < 0:
            raise ConfigError("ep_rounds must be nonnegative")
        if self.ep_rounds_max < 0:
            raise ConfigError("ep_rounds_max must be nonnegative")


@dataclass
class SimReport:
    N: int
    L: int
    seed: int
    n_sifted: int
    set_sizes: list[int]
    e_hats: list[float]
    qer_estimate: float
    aborted: bool
    abort_reason: Optional[str]
    empirical_sbmer: float
    empirical_ber: Optional[float]
    ep_rounds: int = 0
    survivors_per_round: list[int] = field(default_factory=list)
    pec_r: int = 0
    analytic_target_met: Optional[bool] = None
    analytic_spin_bound: Optional[float] = None
    analytic_phase_bound: Optional[float] = None
    key_length: int = 0
    keys_match: bool = False
    key_mismatch_count: int = 0
    phase_residual_rate: Optional[float] = None
    spin_rate_pre_pec: Optional[float] = None
    spin_rate_post_pec: Optional[float] = None
    post_sift_label_counts: Optional[list[int]] = None
    post_ep_label_dist: Optional[list[float]] = None

    def to_dict(self) -> dict:
        return dict(self.__dict__)  # every field is a plain Python value


# ----------------------------------------------------------------------
# Stage operations (also exposed for direct testing)
# ----------------------------------------------------------------------

def sift(gf: GF, params: SymplecticParams, set_idx, labels):
    """Conjugate each sifted register's flat raw label (from sample_raw_labels)
    into the computational frame of its set's power, a block at a time.

    Returns (a, b, set_sizes, post_sift_label_counts): the effective spin
    and phase labels, the size of each of the N + 1 sets and the count of
    each label a*N + b.  a is written over the contiguous *labels* buffer, as
    its first set_idx.size bytes: block j writes only bytes of labels that
    blocks 0..j have read, whatever the label dtype, so the caller's labels
    are spent.  run_protocol sets Bob's value s + a after testing.
    """
    N = gf.N
    ca, cb = conjugation_tables(gf, params)
    # both sifted labels of each flat (set, raw a, raw b) index, as a | b << 8
    packed = (ca | cb.astype(np.uint16) << 8).ravel()
    a, b = labels.view(np.uint8)[: set_idx.size], np.empty(set_idx.size, np.uint8)
    raw_counts = np.zeros((N + 1) * N * N, np.intp)
    # the flat (set, raw a, raw b) index is computed in the narrowest dtype
    # that holds it, where the multiply and add are cheapest, then widened
    # once into an intp buffer, so neither np.take nor bincount copies an index
    walk = _kernels.blocks(set_idx.size)
    buf = np.empty(walk[0].stop, np.intp)
    narrow_buf = np.empty(buf.size, np.min_scalar_type((N + 1) * N * N - 1))
    pair_buf = np.empty(buf.size, np.uint16)
    for blk in walk:
        m = blk.stop - blk.start
        idx, narrow, pair = buf[:m], narrow_buf[:m], pair_buf[:m]
        np.multiply(set_idx[blk], N * N, out=narrow, dtype=narrow.dtype)
        narrow += labels[blk]
        idx[...] = narrow
        np.take(packed, idx, out=pair, mode="clip")
        a[blk] = pair  # the truncating copy keeps the low byte
        np.right_shift(pair, 8, out=b[blk], casting="unsafe")
        raw_counts += np.bincount(idx, minlength=(N + 1) * N * N)
    raw_counts = raw_counts.reshape(N + 1, N, N)
    counts = np.zeros((N, N), np.int64)  # every raw count, at its sifted label
    np.add.at(counts, (ca, cb), raw_counts)
    return a, b, raw_counts.sum(axis=(1, 2)), counts.ravel()


@dataclass
class EstimateResult:
    e_hats: list[float]
    qer_estimate: float
    abort_reason: Optional[str]
    kept: int  # untested registers, packed at the front of the pool


# A set of n registers, each marked with probability k/256, has fewer than t
# marks with probability at most exp(-(mu - t)^2 / (2 mu)) when its mean
# mu = n k / 256 is at least t (Chernoff).  _thinning_level keeps that at or
# below exp(-_SHORT_LOG) = 1e-12 / 256 in each of the at most 256 sets, so a
# run redraws its marks with probability at most 1e-12.
_SHORT_LOG = math.log(256e12)


def _thinning_level(set_sizes, test_counts) -> int:
    """The least k <= 256 whose marks fall short of a set's test count with
    probability at most exp(-_SHORT_LOG), in every set."""
    c = 2 * _SHORT_LOG
    # the least mean with (mu - t)^2 >= c mu
    mu = ((math.sqrt(c) + np.sqrt(c + 4 * test_counts)) / 2) ** 2
    return int(min(256, np.ceil(256 * mu / np.maximum(set_sizes, 1)).max()))


def estimate_qer(gf: GF, set_idx, set_sizes, pool, test_counts, abort_threshold: float,
                 rng: np.random.Generator) -> EstimateResult:
    """Sacrifice test_counts[i] uniformly random members of each set,
    estimate the per-set disagreement rates and the QER upper bound.
    Set sizes are random, so a set smaller than its test count aborts.

    The test registers are picked by thinning.  Every register is marked
    when one generator byte is below k, so each mark is Bernoulli(k/256),
    for k from _thinning_level; while some set has fewer marks than its test
    count, all marks are drawn again at twice the k, up to k = 256, which
    marks every register.  Each set then tests test_counts[i] of its marked
    members, chosen by rng.choice.  Given the set indices, acceptance reads
    only the per-set mark counts; given its count, a set's marked members
    are a uniform subset of it, independently across sets; so the tested
    members are a uniform test_counts[i]-subset of each set, blind to the
    labels: the law of choosing them by rng.choice among all the members.
    The bytes come from whole 32-bit outputs, so they do not depend on
    _kernels.BLOCK.

    *pool* is (a, b, s): sift's labels and Alice's values; run_protocol sets
    Bob's value afterwards, on the untested registers alone, writing it over
    set_idx, which is spent once this returns.  The tested registers leave
    all three arrays by swap-remove, and the first EstimateResult.kept
    entries of each are untested: the tested positions below kept,
    ascending, take the untested registers of the tail [kept, n),
    ascending, an order read off the tested positions alone (module docstring).
    """
    for i, (size, want) in enumerate(zip(set_sizes.tolist(), test_counts.tolist())):
        if size < want:
            return EstimateResult([], 0.0, f"set {i} holds {size} particles, cannot test {want}", 0)
    n = set_idx.size
    k = _thinning_level(set_sizes, test_counts)
    while True:
        marked, marked_set, marks = [], [], np.zeros(gf.N + 1, np.intp)
        for blk in _kernels.blocks(n, 4):  # whole 32-bit outputs per block
            m = blk.stop - blk.start
            pos = np.flatnonzero(_raw_u32(rng, -(-m // 4)).view(np.uint8)[:m] < k)
            pos += blk.start
            marked.append(pos)
            marked_set.append(set_idx[pos])
            marks += np.bincount(marked_set[-1], minlength=gf.N + 1)
        if (marks >= test_counts).all():
            break
        k = min(256, 2 * k)
    marked, marked_set = np.concatenate(marked), np.concatenate(marked_set)
    # each set's marked members, ascending, as consecutive runs of one stable sort
    by_set = np.split(marked_set.argsort(kind="stable"), marks.cumsum()[:-1])
    pick = np.zeros(marked.size, bool)
    for members, want in zip(by_set, test_counts.tolist()):
        pick[members[rng.choice(members.size, size=want, replace=False)]] = True
    tested, owner = marked[pick], marked_set[pick]  # ascending, as the marks are
    del marked, marked_set
    e_hats = (np.bincount(owner, pool[0][tested] != 0, gf.N + 1) / test_counts).tolist()
    kept = n - tested.size
    cut = tested.searchsorted(kept)
    tail = np.ones(n - kept, bool)
    tail[tested[cut:] - kept] = False
    for v in pool:
        v[tested[:cut]] = v[kept:][tail]
    est = qer_estimator(e_hats)
    reason = (f"estimated QER {est:.4f} exceeds threshold {abort_threshold:.4f}"
              if est > abort_threshold else None)
    return EstimateResult(e_hats, est, reason, kept)


def locc2_ep_round(gf: GF, a, b, s, bob):
    """One purification round; register 2j controls register 2j+1."""
    return _kernels.ep_round(a, b, s, bob, gf.add_table)


def pec_majority(gf: GF, a, b, s, bob, r: int):
    """Group consecutive registers in r-tuples (dropping the last a.size % r),
    sum values into key digits and track the residual spin/phase errors.

    Returns a dict with alice/bob key digits, the group spin sums, and
    the plurality phase labels.
    """
    if r < 1 or r % 2 == 0:
        raise ConfigError("repetition count r must be odd and >= 1")
    if a.size < r:
        raise InvariantViolation(f"{a.size} registers cannot fill a single group of {r}")
    ell = a.size // r
    grp = lambda v: v[: ell * r].reshape(ell, r)
    return {
        "alice_key": _kernels.group_sums(grp(s), gf),
        "bob_key": _kernels.group_sums(grp(bob), gf),
        "spin_sums": _kernels.group_sums(grp(a), gf),
        "phase_votes": _kernels.plurality(grp(b), gf.N),
    }


# ----------------------------------------------------------------------
# Round/repetition selection
# ----------------------------------------------------------------------

def _r_grid(limit: int) -> list[int]:
    """Odd repetition counts 1, 3, 5, ... growing geometrically up to limit."""
    out, r = [], 1
    while r <= limit:
        out.append(r)
        nxt = int(r * 1.5) + 1
        r = nxt + 1 - nxt % 2  # next odd > r, since int(1.5 r) >= r
    return out


def _choose_r(config: ProtocolConfig, terms: Optional[PecBoundTerms], survivors: int, last: bool):
    """(r, spin bound, phase bound, analytic_target_met) for *survivors*
    registers, or None while purification goes on.  *terms* are the residual
    bounds' r-free terms at this round count, or None without bounds; each
    candidate r reads terms.at(r) once.  Without an explicit round or
    repetition count, the first grid r whose bounds meet the eps_I/ell^2
    target ends it.  After the last round: an explicit r, else the grid r with
    the smallest bound total, else (no bounds) the odd isqrt of the survivors."""
    auto = config.ep_rounds is None and config.pec_r is None
    if not (last or auto and terms is not None):
        return None
    met = False if auto and config.gf.p == 2 else None  # odd p has no bound to miss
    if terms is None:
        # an explicit r, else the bound-free fallback: balance digit count against group size
        r = config.pec_r or max(1, int(math.isqrt(survivors)))
        return r + 1 - r % 2, None, None, met  # made odd; an explicit r already is
    tried = []
    for r in [config.pec_r] if config.pec_r is not None else _r_grid(max(1, survivors // 2)):
        b = terms.at(r)
        if auto and r <= survivors and b.spin + b.phase <= config.epsilon_i / (survivors // r) ** 2:
            return r, b.spin, b.phase, True
        tried.append((r, b.spin, b.phase, met))
    return min(tried, key=lambda t: t[1] + t[2]) if last else None


# ----------------------------------------------------------------------
# Full protocol
# ----------------------------------------------------------------------

@cache
def field_setup(gf: GF) -> tuple[SymplecticParams, tuple[tuple[tuple[int, int], ...], ...]]:
    """M's parameters and the label classes of gf, found once per field and
    shared by every run on it and by the CLI's pauli-iid channel, so the
    classes are a read-only tuple.  Two threads starting on a new field
    together may both find them; they find the same."""
    params = choose_M(gf, find_char_poly(gf))
    return params, tuple(equiv_classes(gf, params))


def run_protocol(config: ProtocolConfig, channel: ChannelModel) -> SimReport:
    """sift -> estimate and abort -> purification rounds -> majority vote."""
    config.validate()
    gf = config.gf
    channel.validate(gf)
    N = gf.N
    params, partition = field_setup(gf)
    rng = np.random.default_rng(config.rng_seed)

    # -- transmission + sift (law-equivalent subsampling of matches) ----
    n_sift = int(rng.binomial(config.L, 1.0 / (N + 1)))
    set_idx = _uint8_below(rng, N + 1, n_sift)
    s = _uint8_below(rng, N, n_sift)
    a, b, set_sizes, sift_counts = sift(gf, params, set_idx,
                                        sample_raw_labels(channel, gf, n_sift, rng))
    spin_counts = sift_counts.reshape(N, N).sum(axis=1)
    sbmer = float((n_sift - spin_counts[0]) / n_sift) if n_sift else 0.0
    bits = gf.coeff_table.sum(axis=1)  # for p = 2, the bit count of each spin label
    ber = float(bits @ spin_counts / n_sift / gf.n) if (gf.p == 2 and n_sift) else None

    report = SimReport(
        N=N,
        L=config.L,
        seed=config.rng_seed,
        n_sifted=n_sift,
        set_sizes=set_sizes.tolist(),
        e_hats=[],
        qer_estimate=0.0,
        aborted=False,
        abort_reason=None,
        empirical_sbmer=sbmer,
        empirical_ber=ber,
        post_sift_label_counts=sift_counts.tolist(),
    )

    # -- estimation / abort ---------------------------------------------
    if config.test_count is not None:
        test_counts = np.full(N + 1, config.test_count)
    else:
        test_counts = np.floor(set_sizes * config.test_fraction).astype(int)
        test_counts = np.maximum(test_counts, 1)
    threshold = config.resolved_abort_threshold()
    est = estimate_qer(gf, set_idx, set_sizes, (a, b, s), test_counts, threshold, rng)
    report.e_hats = est.e_hats
    report.qer_estimate = est.qer_estimate
    if est.abort_reason is not None:
        report.aborted = True
        report.abort_reason = est.abort_reason
        return report

    a, b, s = (v[: est.kept] for v in (a, b, s))
    # Bob's value, for the untested registers only, in the spent set-index buffer
    bob = _kernels.gf_add(gf.add_table, s, a, out=set_idx[: est.kept])
    del set_idx

    # -- purification rounds, until r is chosen ---------------------------
    e00_eff = 1.0 - est.qer_estimate - config.delta
    worst = worst_case_distribution(gf, partition, e00_eff) if _bounds_apply(gf, e00_eff) else None
    rounds = config.ep_rounds if config.ep_rounds is not None else config.ep_rounds_max
    k = 0
    while True:
        terms = None if worst is None else pec_bound_terms(ep_closed_form(worst, k), e00_eff, k)
        choice = _choose_r(config, terms, a.size, k == rounds)
        if choice is not None:
            break
        if a.size < 2:
            report.aborted = True
            report.abort_reason = "register pool exhausted during purification"
            return report
        a, b, s, bob = locc2_ep_round(gf, a, b, s, bob)
        k += 1
        report.ep_rounds = k
        report.survivors_per_round.append(int(a.size))
        if a.size and not (bob == _kernels.gf_add(gf.add_table, s, a)).all():
            raise InvariantViolation("ledger soundness broken after purification round")

    if a.size:
        counts = np.bincount(a.astype(np.int64) * N + b.astype(np.int64), minlength=N * N)
        report.post_ep_label_dist = (counts / a.size).tolist()
    r, report.analytic_spin_bound, report.analytic_phase_bound, report.analytic_target_met = choice
    if r > a.size:
        report.aborted = True
        report.abort_reason = f"repetition count {r} exceeds the {a.size} remaining registers"
        return report
    report.pec_r = r

    # -- majority-vote correction and key extraction ----------------------
    report.spin_rate_pre_pec = float((a != 0).mean())
    pec = pec_majority(gf, a, b, s, bob, r)
    ell = pec["alice_key"].size
    mism = pec["alice_key"] != pec["bob_key"]
    if not (mism == (pec["spin_sums"] != 0)).all():
        raise InvariantViolation("key mismatches inconsistent with the spin ledger")
    report.key_length = int(ell)
    report.key_mismatch_count = int(mism.sum())
    report.keys_match = report.key_mismatch_count == 0
    report.spin_rate_post_pec = float(mism.mean())
    report.phase_residual_rate = float((pec["phase_votes"] != 0).mean())
    return report


def trial_seed(master_seed: int, trial_index: int) -> int:
    """Deterministic per-trial seed derived from (master_seed, index)."""
    ss = np.random.SeedSequence((master_seed, trial_index))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def run_trials(config: ProtocolConfig, channel: ChannelModel, trials: int,
               workers: int = 1) -> list[SimReport]:
    """Independent protocol trials with per-trial derived seeds, on at most
    one thread per CPU this process may run on, since each thread holds a
    live pool."""
    configs = [replace(config, rng_seed=trial_seed(config.rng_seed, i)) for i in range(trials)]
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    with ThreadPoolExecutor(max_workers=min(workers, cpus)) as pool:
        return list(pool.map(lambda c: run_protocol(c, channel), configs))
