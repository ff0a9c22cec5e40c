"""Seeded Monte-Carlo execution of the prepare-and-measure key exchange.

Every transmitted particle is tracked classically through a hidden
Pauli frame: the channel assigns a raw label (a, b), sifting conjugates
it by the power of the basis-cycling unitary both parties applied, and
the purification / majority-vote stages transform it by the exact error
propagation rules.  This ledger is exact for Pauli channels and for
measure-and-resend attacks, which enter as a uniform phase twirl in the
channel frame (raw label (0, c) with c uniform; the sift conjugation
then reproduces the mutually-unbiased outcome statistics, including the
no-disturbance case when the applied power fixes the standard basis).

Only sifted particles are materialized: the sifted count is drawn as a
Binomial(L, 1/(N+1)) and set indices uniformly, which has exactly the
law of simulating all L transmissions and discarding the mismatches.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from . import _kernels
from .exceptions import ConfigError, InvariantViolation
from .fields import GF
from .rates import ErrorDistribution, ep_closed_form, thresholds, qer_estimator, worst_case_distribution
from .toperator import SymplecticParams, choose_M, conjugation_tables, equiv_classes, find_char_poly


# ----------------------------------------------------------------------
# Channel / attack models
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class ChannelModel:
    """A raw-label error process applied per transmitted particle.

    kinds:
      noiseless             no errors
      pauli-iid             iid labels from an explicit distribution
      intercept-resend      full measure-and-resend with probability q
      grouped-qubit-attack  (N = 2^n) the whole n-qubit group measured
                            with probability q; identical ledger effect
                            to intercept-resend
      per-qubit-attack      (N = 2^n) each qubit measured independently
                            with probability q'; a particle with at
                            least one measured qubit is accounted as a
                            fully measured group (probability
                            1 - (1-q')^n), matching the attack analysis
    """

    kind: str
    label_rates: Optional[np.ndarray] = None
    q: float = 0.0
    q_prime: float = 0.0

    @staticmethod
    def noiseless() -> "ChannelModel":
        return ChannelModel("noiseless")

    @staticmethod
    def pauli_iid(dist: ErrorDistribution) -> "ChannelModel":
        return ChannelModel("pauli-iid", label_rates=dist.rates.copy())

    @staticmethod
    def intercept_resend(q: float) -> "ChannelModel":
        return ChannelModel("intercept-resend", q=q)

    @staticmethod
    def grouped_qubit_attack(q: float) -> "ChannelModel":
        return ChannelModel("grouped-qubit-attack", q=q)

    @staticmethod
    def per_qubit_attack(q_prime: float) -> "ChannelModel":
        return ChannelModel("per-qubit-attack", q_prime=q_prime)

    def validate(self, gf: GF) -> None:
        if self.kind not in (
            "noiseless",
            "pauli-iid",
            "intercept-resend",
            "grouped-qubit-attack",
            "per-qubit-attack",
        ):
            raise ConfigError(f"unknown channel kind {self.kind!r}")
        if not 0.0 <= self.q <= 1.0 or not 0.0 <= self.q_prime <= 1.0:
            raise ConfigError("attack probabilities must lie in [0, 1]")
        if self.kind == "pauli-iid":
            if self.label_rates is None or self.label_rates.shape != (gf.N, gf.N):
                raise ConfigError("pauli-iid channel needs an (N, N) label distribution")
            if abs(float(self.label_rates.sum()) - 1.0) > 1e-9:
                raise ConfigError("pauli-iid label distribution must sum to 1")
        if self.kind in ("grouped-qubit-attack", "per-qubit-attack") and gf.p != 2:
            raise ConfigError("qubit-group attacks require characteristic 2")

    def measure_probability(self, gf: GF) -> float:
        """Probability that a particle suffers the measurement twirl."""
        if self.kind == "intercept-resend" or self.kind == "grouped-qubit-attack":
            return self.q
        if self.kind == "per-qubit-attack":
            return 1.0 - (1.0 - self.q_prime) ** gf.n
        return 0.0


def sample_raw_labels(channel: ChannelModel, gf: GF, count: int, rng: np.random.Generator):
    """Raw (pre-sift) error labels for *count* particles."""
    channel.validate(gf)
    N = gf.N
    if channel.kind == "noiseless":
        return np.zeros(count, dtype=np.uint8), np.zeros(count, dtype=np.uint8)
    if channel.kind == "pauli-iid":
        flat = channel.label_rates.ravel()
        lab = rng.choice(N * N, size=count, p=flat / flat.sum())
        return (lab // N).astype(np.uint8), (lab % N).astype(np.uint8)
    # measurement twirl: raw label (0, c), c uniform over GF(N)
    q = channel.measure_probability(gf)
    measured = rng.random(count) < q
    c = rng.integers(0, N, size=count, dtype=np.uint8)
    return np.zeros(count, dtype=np.uint8), np.where(measured, c, 0).astype(np.uint8)


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
    ledger_checks: bool = True

    def resolved_abort_threshold(self) -> float:
        if self.abort_threshold is not None:
            return self.abort_threshold
        if self.gf.p != 2:
            raise ConfigError(
                "no closed-form QER threshold exists for p > 2; pass abort_threshold explicitly"
            )
        return thresholds(self.gf.N).e_qer - self.delta

    def validate(self) -> None:
        if self.L < 1:
            raise ConfigError("L must be positive")
        if (self.test_count is None) == (self.test_fraction is None):
            raise ConfigError("exactly one of test_count / test_fraction must be set")
        if self.test_fraction is not None and not 0.0 < self.test_fraction < 1.0:
            raise ConfigError("test_fraction must lie in (0, 1)")
        if self.test_count is not None and self.test_count < 1:
            raise ConfigError("test_count must be positive")
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
        out = {}
        for k, v in self.__dict__.items():
            if isinstance(v, np.ndarray):
                v = v.tolist()
            out[k] = v
        return out


# ----------------------------------------------------------------------
# Stage operations (also exposed for direct testing)
# ----------------------------------------------------------------------

def sift(gf: GF, params: SymplecticParams, alice_powers, bob_powers, raw_a, raw_b):
    """Keep records whose applied powers match; conjugate the raw labels
    into the computational frame of the matching power.

    Returns (kept_indices, set_idx, eff_a, eff_b).
    """
    alice_powers = np.asarray(alice_powers)
    bob_powers = np.asarray(bob_powers)
    kept = np.flatnonzero(alice_powers == bob_powers)
    set_idx = alice_powers[kept].astype(np.uint8)
    ca, cb = conjugation_tables(gf, params)
    eff_a = ca[set_idx, raw_a[kept], raw_b[kept]]
    eff_b = cb[set_idx, raw_a[kept], raw_b[kept]]
    return kept, set_idx, eff_a, eff_b


@dataclass
class EstimateResult:
    e_hats: list[float]
    qer_estimate: float
    abort: bool
    tested_mask: np.ndarray


def estimate_qer(gf: GF, set_idx, eff_a, test_counts, abort_threshold: float,
                 rng: np.random.Generator) -> EstimateResult:
    """Sacrifice test_counts[i] random particles from each set, estimate
    the per-set disagreement rates and the QER upper bound."""
    n_sets = gf.N + 1
    tested = np.zeros(set_idx.size, dtype=bool)
    e_hats = []
    for i in range(n_sets):
        members = np.flatnonzero(set_idx == i)
        want = int(test_counts[i] if np.ndim(test_counts) else test_counts)
        if members.size < want:
            raise ConfigError(f"set {i} holds {members.size} particles, cannot test {want}")
        pick = rng.choice(members.size, size=want, replace=False)
        chosen = members[pick]
        tested[chosen] = True
        e_hats.append(float((eff_a[chosen] != 0).mean()))
    est = qer_estimator(e_hats)
    return EstimateResult(e_hats, est, est > abort_threshold, tested)


def locc2_ep_round(gf: GF, a, b, s, bob, rng: np.random.Generator):
    """One purification round over the whole register pool."""
    perm = rng.permutation(a.size)
    add_t = gf.add_table.astype(np.uint8)
    return _kernels.ep_round(a, b, s, bob, perm, add_t)


def pec_majority(gf: GF, a, b, s, bob, r: int, rng: np.random.Generator):
    """Group registers in r-tuples, sum values into key digits and track
    the residual spin/phase errors.

    Returns a dict with alice/bob key digits, the group spin sums, and
    the plurality phase labels.
    """
    if r < 1 or r % 2 == 0:
        raise ConfigError("repetition count r must be odd and >= 1")
    if a.size < r:
        raise InvariantViolation(f"{a.size} registers cannot fill a single group of {r}")
    order = rng.permutation(a.size)
    ell = a.size // r
    take = order[: ell * r]
    add_t = gf.add_table.astype(np.uint8)
    grp = lambda v: v[take].reshape(ell, r)
    alice_key = _kernels.group_sums(grp(s), ell, r, add_t)
    bob_key = _kernels.group_sums(grp(bob), ell, r, add_t)
    spin_sums = _kernels.group_sums(grp(a), ell, r, add_t)
    phase_votes = _kernels.plurality(grp(b), ell, r, gf.N)
    return {
        "alice_key": alice_key,
        "bob_key": bob_key,
        "spin_sums": spin_sums,
        "phase_votes": phase_votes,
    }


# ----------------------------------------------------------------------
# Round/repetition selection
# ----------------------------------------------------------------------

def _analytic_bounds(gf: GF, partition, e00_eff: float, k: int, r: int) -> tuple[float, float]:
    """Worst-case analytic (spin, phase) residual bounds after k rounds
    and [r,1,r] voting, at assumed initial rate e00_eff."""
    N = gf.N
    wc = worst_case_distribution(gf, partition, e00_eff)
    wck = ep_closed_form(wc, k)
    x = (1.0 - e00_eff) / (N + 1)
    rho = ((e00_eff - x) / (e00_eff + x)) ** (2 ** (k + 1))
    return r * wck.spin_error_rate(), (N - 1) * (1.0 - rho / 2.0) ** r


def _r_grid(limit: int) -> list[int]:
    """Odd repetition counts 1, 3, 5, ... growing geometrically up to limit."""
    out, r = [], 1
    while r <= limit:
        out.append(r)
        nxt = int(r * 1.5) + 1
        r = nxt + 1 - nxt % 2  # next odd > r
        if r <= out[-1]:
            r = out[-1] + 2
    return out


def _select_rounds_and_r(gf: GF, partition, e00_eff: float, survivors: int,
                         epsilon_i: float, k_now: int, analytic_ok: bool):
    """Try to certify a (k = k_now, odd r) pair meeting the eps_I/ell^2
    target via the analytic bounds.  Returns (r, spin, phase) or None."""
    if not analytic_ok:
        return None
    for r in _r_grid(max(1, survivors // 2)):
        ell = survivors // r
        if ell < 1:
            break
        spin, phase = _analytic_bounds(gf, partition, e00_eff, k_now, r)
        if spin + phase <= epsilon_i / ell**2:
            return r, spin, phase
    return None


# ----------------------------------------------------------------------
# Full protocol
# ----------------------------------------------------------------------

def run_protocol(config: ProtocolConfig, channel: ChannelModel) -> SimReport:
    config.validate()
    gf = config.gf
    channel.validate(gf)
    N = gf.N
    params = choose_M(gf, find_char_poly(gf))
    partition = equiv_classes(gf, params)
    rng = np.random.default_rng(config.rng_seed)
    add_t = gf.add_table.astype(np.uint8)

    # -- transmission + sift (law-equivalent subsampling of matches) ----
    n_sift = int(rng.binomial(config.L, 1.0 / (N + 1)))
    set_idx = rng.integers(0, N + 1, size=n_sift, dtype=np.uint8)
    s = rng.integers(0, N, size=n_sift, dtype=np.uint8)
    raw_a, raw_b = sample_raw_labels(channel, gf, n_sift, rng)
    ca, cb = conjugation_tables(gf, params)
    a = ca[set_idx, raw_a, raw_b]
    b = cb[set_idx, raw_a, raw_b]
    bob = add_t[s, a]
    set_sizes = np.bincount(set_idx, minlength=N + 1)

    wt = np.array([bin(x).count("1") for x in range(N)])
    sbmer = float((a != 0).mean()) if n_sift else 0.0
    ber = float(wt[a].mean() / gf.n) if (gf.p == 2 and n_sift) else None
    sift_counts = np.bincount(a.astype(np.int64) * N + b.astype(np.int64), minlength=N * N)

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
    est = estimate_qer(gf, set_idx, a, test_counts, threshold, rng)
    report.e_hats = est.e_hats
    report.qer_estimate = est.qer_estimate
    if est.abort:
        report.aborted = True
        report.abort_reason = (
            f"estimated QER {est.qer_estimate:.4f} exceeds threshold {threshold:.4f}"
        )
        return report

    keep = ~est.tested_mask
    a, b, s, bob = a[keep], b[keep], s[keep], bob[keep]

    # -- purification rounds ---------------------------------------------
    e00_eff = 1.0 - est.qer_estimate - config.delta
    dom_edge = 1.0 / (N + 2) if gf.p == 2 else 2.0 / (N + 3)
    analytic_ok = e00_eff > dom_edge + 1e-9 and e00_eff < 1.0
    target_rounds = config.ep_rounds if config.ep_rounds is not None else None
    chosen: Optional[tuple[int, float, float]] = None
    k = 0
    while True:
        if target_rounds is None and config.pec_r is None:
            sel = _select_rounds_and_r(
                gf, partition, e00_eff, a.size, config.epsilon_i, k, analytic_ok
            )
            if sel is not None:
                chosen = sel
                report.analytic_target_met = True
                break
            if k >= config.ep_rounds_max:
                report.analytic_target_met = False
                break
        elif k >= (target_rounds if target_rounds is not None else config.ep_rounds_max):
            break
        if a.size < 2:
            report.aborted = True
            report.abort_reason = "register pool exhausted during purification"
            return report
        a, b, s, bob = locc2_ep_round(gf, a, b, s, bob, rng)
        k += 1
        report.survivors_per_round.append(int(a.size))
        if config.ledger_checks and a.size:
            if not (bob == add_t[s, a]).all():
                raise InvariantViolation("ledger soundness broken after purification round")

    report.ep_rounds = k
    if a.size:
        counts = np.bincount(a.astype(np.int64) * N + b.astype(np.int64), minlength=N * N)
        report.post_ep_label_dist = (counts / a.size).tolist()

    # -- repetition count ------------------------------------------------
    if config.pec_r is not None:
        r = config.pec_r
        if analytic_ok:
            spin_b, phase_b = _analytic_bounds(gf, partition, e00_eff, k, r)
            report.analytic_spin_bound, report.analytic_phase_bound = spin_b, phase_b
    elif chosen is not None:
        r, report.analytic_spin_bound, report.analytic_phase_bound = chosen
    else:
        # bound-free fallback: balance digit count against residuals
        if analytic_ok:
            best = None
            for cand in _r_grid(max(1, a.size // 2)):
                spin_b, phase_b = _analytic_bounds(gf, partition, e00_eff, k, cand)
                if best is None or spin_b + phase_b < best[1] + best[2]:
                    best = (cand, spin_b, phase_b)
            r, report.analytic_spin_bound, report.analytic_phase_bound = best
        else:
            r = max(1, int(math.isqrt(a.size)))
            r += 1 - r % 2
    if r > a.size:
        report.aborted = True
        report.abort_reason = f"repetition count {r} exceeds the {a.size} remaining registers"
        return report
    report.pec_r = r

    # -- majority-vote correction and key extraction ----------------------
    report.spin_rate_pre_pec = float((a != 0).mean())
    pec = pec_majority(gf, a, b, s, bob, r, rng)
    ell = pec["alice_key"].size
    mism = pec["alice_key"] != pec["bob_key"]
    if config.ledger_checks:
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
    """Independent protocol trials with per-trial derived seeds."""
    configs = [replace(config, rng_seed=trial_seed(config.rng_seed, i)) for i in range(trials)]
    if workers <= 1:
        return [run_protocol(c, channel) for c in configs]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(lambda c: run_protocol(c, channel), configs))
