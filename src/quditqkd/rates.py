"""Analytic error-rate machinery.

Holds the X_a Z_b error distributions with their orbit symmetry, the
two-way entanglement-purification recursion and its character-sum
closed form, the majority-vote phase-correction bounds, the tolerable
error-rate thresholds for N = 2^n, the sampling estimator, and the
closed-form analysis of the qubit-group eavesdropping attacks.

A note on the closed form: the recursion convolves each row of the
distribution with itself over the additive group GF(p)^n, so the exact
k-round answer is the inverse character transform of the row transform
raised to the 2^k power.  The real-cosine way of writing it is exact
whenever the row transforms are real, which always holds for p = 2; the
complex character sum used here is exact for every p.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache
from typing import Mapping

import numpy as np

from .exceptions import ConfigError
from .fields import GF

SQRT5 = math.sqrt(5.0)


class ErrorDistribution:
    """Rates e_ab over GF(N)^2, stored as an (N, N) array indexed [a, b].

    Fresh distributions carry the orbit symmetry e_ab = e_a'b' for equivalent
    labels, checked given a partition; all retain e_ab = e_{-a,-b}.
    """

    def __init__(self, gf: GF, rates: np.ndarray, *, partition=None, check: bool = True):
        rates = np.asarray(rates, dtype=np.float64)
        if rates.shape != (gf.N, gf.N):
            raise ValueError(f"rates must be shaped ({gf.N}, {gf.N})")
        self.gf = gf
        self.rates = rates
        if check:
            self._validate(partition)

    def _validate(self, partition) -> None:
        if (self.rates < -1e-15).any():
            raise ValueError("negative error rate")
        total = float(self.rates.sum())
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"rates sum to {total}, not 1")
        gf = self.gf
        if partition is not None:
            for cls in partition:
                vals = [self.rates[a, b] for a, b in cls]
                if max(vals) - min(vals) > 1e-12:
                    raise ValueError("class symmetry violated on a fresh distribution")
        # central symmetry holds for fresh and EP-evolved alike
        neg = gf.sub_table[0]
        if (np.abs(self.rates - self.rates[np.ix_(neg, neg)]) > 1e-12).any():
            raise ValueError("central symmetry e_ab = e_{-a,-b} violated")

    @property
    def e00(self) -> float:
        return float(self.rates[0, 0])

    def row_sums(self) -> np.ndarray:
        return self.rates.sum(axis=1)

    def spin_error_rate(self) -> float:
        """Total rate of labels with a != 0."""
        return float(self.rates[1:, :].sum())


def make_error_distribution(gf: GF, partition, class_rates: Mapping[tuple[int, int], float]) -> ErrorDistribution:
    """Expand per-class (per-label) rates to the full label array.

    *class_rates* maps the lexicographically smallest member of a class
    to the rate shared by every label in that class; omitted classes get
    rate zero.  The expanded rates must sum to 1.
    """
    rates = np.zeros((gf.N, gf.N))
    reps = {cls[0]: cls for cls in partition}
    for rep, rate in class_rates.items():
        if rate < 0:
            raise ValueError(f"negative rate for class {rep}")
        if rep not in reps:
            raise ValueError(f"{rep} is not the canonical representative of a class")
        for a, b in reps[rep]:
            rates[a, b] = rate
    return ErrorDistribution(gf, rates, partition=partition)


def worst_case_distribution(gf: GF, partition, e00: float) -> ErrorDistribution:
    """Mass e00 on (0,0) and (1-e00)/(N+1) on every label equivalent to (0,1)."""
    if not 0.0 <= e00 <= 1.0:
        raise ConfigError("e00 must lie in [0, 1]")
    cls01 = next(cls for cls in partition if (0, 1) in cls)
    return make_error_distribution(
        gf, partition, {(0, 0): e00, cls01[0]: (1.0 - e00) / (gf.N + 1)}
    )


# ----------------------------------------------------------------------
# LOCC2 entanglement-purification recursion
# ----------------------------------------------------------------------

def ep_step(d: ErrorDistribution) -> ErrorDistribution:
    """One purification round: row-wise self-convolution over the phase
    index, renormalized by the survival probability sum_i (sum_j e_ij)^2."""
    gf = d.gf
    sub = np.asarray(gf.sub_table, dtype=np.intp)
    e = d.rates
    denom = float((e.sum(axis=1) ** 2).sum())
    if denom <= 0.0:
        raise ZeroDivisionError("degenerate distribution: zero survival probability")
    out = np.empty_like(e)
    for a in gf.elements():
        row = e[a]
        # out[b] = sum_c row[c] * row[b - c]
        out[a] = row[sub] @ row
    return ErrorDistribution(gf, out / denom)


@cache
def _character_matrix(gf: GF) -> np.ndarray:
    """Read-only W[m, j] = omega_p^(m . j) with the digit dot product mod p,
    built once per field."""
    digits = gf.coeff_table  # (N, n)
    dots = (digits @ digits.T) % gf.p
    W = np.exp(2j * np.pi / gf.p) ** dots
    W.flags.writeable = False
    return W


def ep_closed_form(d: ErrorDistribution, k: int) -> ErrorDistribution:
    """The k-round purification result in closed form via the character
    transform; matches ep_step iterated k times to floating precision."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    if k == 0:
        return ErrorDistribution(d.gf, d.rates.copy(), check=False)
    gf = d.gf
    W = _character_matrix(gf)
    # row transforms, ehat[a, m], raised to 2^k by squaring
    powed = d.rates @ W.T
    for _ in range(k):
        powed *= powed
        # an exact power-of-two rescale, which cancels in numer / denom, keeps
        # the largest row mass powed[:, 0] in [0.5, 1): deep k cannot underflow
        powed *= 2.0 ** -math.frexp(float(powed[:, 0].real.max()))[1]
    numer = (powed @ W.conj()).real / gf.N
    denom = float(powed[:, 0].real.sum())
    if denom <= 0.0:
        raise ZeroDivisionError("degenerate distribution: zero survival probability")
    return ErrorDistribution(gf, numer / denom, check=False)


# ----------------------------------------------------------------------
# Phase error correction bounds and thresholds (p = 2)
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class PecBounds:
    spin: float
    phase: float


@dataclass(frozen=True)
class PecBoundTerms:
    """The r-free terms of the residual bounds for one (d_k, e00_initial, k):
    the spin error rate of d_k, the prefactor N - 1 and the base 1 - rho/2
    (0 at e_00 = 1, where there are no phase errors)."""

    spin_rate: float
    prefactor: int
    base: float

    def at(self, r: int) -> PecBounds:
        """The bounds for repetition count r, in Python floats."""
        if r < 1:
            raise ValueError("repetition count r must be >= 1")
        return PecBounds(spin=r * self.spin_rate, phase=self.prefactor * self.base ** r)


def _bounds_apply(gf: GF, e00: float) -> bool:
    """Whether the residual bounds are derived at (gf, e00): p = 2 and e00 in
    the dominance region 1/(N+2) < e00 <= 1."""
    return gf.p == 2 and 1.0 / (gf.N + 2) < e00 <= 1.0


def pec_bound_terms(d_k: ErrorDistribution, e00_initial: float, k: int) -> PecBoundTerms:
    """Residual-error bounds after k purification rounds and [r,1,r] majority
    voting, as r-free terms: pec_bound_terms(d_k, e00_initial, k).at(r).

    spin:  r times the current (post-k-EP) spin error rate.
    phase: (N-1) [1 - rho/2]^r with rho the 2^(k+1) power of the
           worst-case contrast ratio at the *initial* e_00 (the large-k
           form with the tightening factor t set to 1).  At e_00 = 1
           there are no phase errors at all and the bound is 0.

    Only the powers of r depend on r, so a search over r builds the terms
    once per (d_k, e00_initial, k) and evaluates PecBoundTerms.at for each r.
    The bound formula is valid for any r >= 1 and is monotone decreasing
    in r; the majority-vote operation itself additionally requires odd r.
    The bounds are derived only where _bounds_apply holds.
    """
    N = d_k.gf.N
    if not _bounds_apply(d_k.gf, e00_initial):
        raise ValueError(f"residual bounds need p = 2 and 1/(N+2) < e00 <= 1, got e00 = {e00_initial}")
    base = 0.0
    if e00_initial < 1.0:
        x = (1.0 - e00_initial) / (N + 1)
        rho = ((e00_initial - x) / (e00_initial + x)) ** (2 ** (k + 1))
        base = 1.0 - rho / 2.0
    return PecBoundTerms(spin_rate=d_k.spin_error_rate(), prefactor=N - 1, base=base)


@dataclass(frozen=True)
class ThresholdTable:
    N: int
    e_qer: float
    e_sbmer: float
    e_ber: float


def thresholds(N: int) -> ThresholdTable:
    """Tolerable QER / SBMER / BER for N = 2^n."""
    n = N.bit_length() - 1
    if N < 2 or N != 1 << n:
        raise ConfigError("thresholds are only available for N = 2^n")
    g = (N + 1) * (SQRT5 - 2.0)
    e_qer = g / (1.0 + g)
    e_sbmer = N * e_qer / (N + 1)
    ber_factor = 1.0 if N == 2 else 0.5 + 1.0 / (N * n)
    return ThresholdTable(N=N, e_qer=e_qer, e_sbmer=e_sbmer, e_ber=e_sbmer * ber_factor)


def qer_estimator(e_hats) -> float:
    """Upper-bound estimator sum_i e_hat_i / N from the N+1 per-set rates."""
    e_hats = list(e_hats)
    for v in e_hats:
        if not 0.0 <= v <= 1.0:
            raise ValueError(f"estimated rate {v} outside [0, 1]")
    return sum(e_hats) / (len(e_hats) - 1)


# ----------------------------------------------------------------------
# Eavesdropping attack calculus
# ----------------------------------------------------------------------

Q_LOW = 0.3 * (5.0 - SQRT5)                   # ~ 0.8292
Q_HIGH = (68.0 / 1335.0) * (19.0 - SQRT5)     # ~ 0.8539
SIX_STATE_BER_LIMIT = (5.0 - SQRT5) / 10.0    # ~ 0.2764
_MAX_EVE_BER_DEGREE = 507  # eve_ber's denominator 2 N n (N + 1) is a float, < 2^1024


def eve_ber(N: int, q: float) -> float:
    """Effective bit error rate of the qubit-group attack measured
    against the worst-case QER:BER accounting, q(N-1)(Nn+2)/(2Nn(N+1))."""
    n = N.bit_length() - 1
    if N != 1 << n or N < 2:
        raise ConfigError("the qubit-group attack needs N = 2^n")
    if n > _MAX_EVE_BER_DEGREE:
        raise ConfigError(f"the attack rate overflows a float above n = {_MAX_EVE_BER_DEGREE}")
    return q * (N - 1) * (N * n + 2) / (2.0 * N * n * (N + 1))


def intercept_resend_sbmer_ceiling(N: int, p: int = 2) -> float:
    """Largest standard-basis error rate the full measure-and-resend
    attack can be blamed on: (N-1)/(N+1) for p = 2, (N-1)^2/(N(N+1)) else."""
    if p == 2:
        return (N - 1) / (N + 1)
    return (N - 1) ** 2 / (N * (N + 1))


@dataclass(frozen=True)
class AttackReport:
    N: int
    q: float
    eve_ber_at_N: float
    eve_ber_at_2: float
    eve_ber_at_16: float
    q_interval: tuple[float, float]
    q_in_interval: bool
    sbmer_ceiling_p2: float
    sbmer_ceiling_podd: float
    per_qubit_q: float
    per_qubit_six_state_ber: float
    defeats_qubit_schemes: bool
    survives_at_16: bool


def attack_calculus(N: int, q: float) -> AttackReport:
    """Closed-form summary of the grouped-qubit and per-qubit attacks."""
    if not 0.0 <= q <= 1.0:
        raise ConfigError("q must lie in [0, 1]")
    n = N.bit_length() - 1
    if N != 1 << n or N < 2:
        raise ConfigError("attack calculus needs N = 2^n")
    qp = 1.0 - ((43.0 + 68.0 * SQRT5) / 1335.0) ** 0.25
    return AttackReport(
        N=N,
        q=q,
        eve_ber_at_N=eve_ber(N, q),
        eve_ber_at_2=eve_ber(2, q),
        eve_ber_at_16=eve_ber(16, q),
        q_interval=(Q_LOW, Q_HIGH),
        q_in_interval=Q_LOW < q < Q_HIGH,
        sbmer_ceiling_p2=intercept_resend_sbmer_ceiling(N, 2),
        sbmer_ceiling_podd=intercept_resend_sbmer_ceiling(N, 3),
        per_qubit_q=qp,
        per_qubit_six_state_ber=qp / 3.0,
        defeats_qubit_schemes=eve_ber(2, q) > SIX_STATE_BER_LIMIT,
        survives_at_16=eve_ber(16, q) < thresholds(16).e_ber,
    )
