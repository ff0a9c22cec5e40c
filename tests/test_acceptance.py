"""Acceptance suite: one test per shipping criterion, each printing a
PASS line with its measured figures (run with -s to see them live)."""

import time

import numpy as np
import pytest
from scipy.stats import chi2

from conftest import cached_params, cached_partition, cached_top
from quditqkd.fields import make_field
from quditqkd.protocol import ChannelModel, ProtocolConfig, run_protocol, run_trials, sift
from quditqkd.rates import (
    attack_calculus,
    ep_closed_form,
    ep_step,
    make_error_distribution,
    pec_bound_terms,
    thresholds,
    worst_case_distribution,
)
from quditqkd.toperator import verify_T
from weyl_oracle import pauli_matrix

ALL_N = [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (2, 4)]


def phase_align(reference, other):
    idx = np.unravel_index(np.argmax(np.abs(other)), other.shape)
    return other * (reference[idx] / other[idx])


# ---------------------------------------------------------------------
# 1. reference small operators reproduced up to global phase
# ---------------------------------------------------------------------

def test_acceptance_1_reference_operators():
    t0 = time.time()

    gf2 = make_field(2, 1)
    ref2 = 0.5 * np.array([[1 - 1j, -1 - 1j], [1 - 1j, 1 + 1j]])

    gf3 = make_field(3, 1)
    w3 = np.exp(2j * np.pi / 3)
    ref3 = sum(
        w3 ** (2 * (i == 0) + (j == 0)) * pauli_matrix(gf3, i, j)
        for i in range(3)
        for j in range(3)
    ) / 3

    gf4 = make_field(2, 2)
    omega = 2
    ref4 = np.zeros((4, 4), dtype=complex)
    for i in gf4.elements():
        for j in gf4.elements():
            s = gf4.add(i, j)
            half = gf4.trace(gf4.mul(omega, s))
            ref4 += (
                (-1j) ** half
                * (-1.0) ** (gf4.trace(s) + (1 if s == 1 else 0))
                * pauli_matrix(gf4, i, j)
            )
    ref4 /= 4

    worst = 0.0
    for (p, n), ref in [((2, 1), ref2), ((3, 1), ref3), ((2, 2), ref4)]:
        T = cached_top(p, n).matrix
        worst = max(worst, float(np.abs(T - phase_align(T, ref)).max()))
    elapsed = time.time() - t0
    assert worst < 1e-10
    assert elapsed < 1.0
    print(f"\nACCEPTANCE 1: PASS - N=2,3,4 operators match their reference forms "
          f"(max residual {worst:.2e}, {elapsed:.2f}s)")


# ---------------------------------------------------------------------
# 2. threshold table reproduced
# ---------------------------------------------------------------------

def test_acceptance_2_threshold_table():
    t0 = time.time()
    reference = {2: (27.64, 27.64), 4: (43.31, 27.07), 8: (60.44, 32.74), 16: (75.34, 38.85)}
    worst = 0.0
    for N, (sbmer, ber) in reference.items():
        t = thresholds(N)
        worst = max(worst, abs(100 * t.e_sbmer - sbmer), abs(100 * t.e_ber - ber))
    elapsed = time.time() - t0
    assert worst < 0.005
    assert elapsed < 1.0
    print(f"\nACCEPTANCE 2: PASS - SBMER/BER table reproduced "
          f"(max deviation {worst:.4f} pp, {elapsed:.2f}s)")


# ---------------------------------------------------------------------
# 3. operator identity suite for every prime power
# ---------------------------------------------------------------------

def test_acceptance_3_operator_identities():
    t0 = time.time()
    worst = 0.0
    for p, n in ALL_N:
        top = cached_top(p, n)
        rep = verify_T(top)
        assert rep.order_up_to_phase == top.gf.N + 1
        assert rep.mub_ok and rep.all_ok
        worst = max(worst, rep.unitarity_residual, rep.conjugation_residual, rep.mub_max_deviation)
    elapsed = time.time() - t0
    assert worst < 1e-10
    assert elapsed < 30.0
    print(f"\nACCEPTANCE 3: PASS - unitarity/order/conjugation/MUB for "
          f"N in 2..16 (max residual {worst:.2e}, {elapsed:.1f}s)")


# ---------------------------------------------------------------------
# 4. equivalence class structure
# ---------------------------------------------------------------------

def test_acceptance_4_equivalence_classes():
    for p, n in ALL_N:
        gf, _ = cached_params(p, n)
        part = cached_partition(p, n)
        N = gf.N
        assert len(part) == N
        assert part[0] == ((0, 0),)
        assert all(len(cls) == N + 1 for cls in part[1:])
        assert sorted(lbl for cls in part for lbl in cls) == [
            (a, b) for a in range(N) for b in range(N)
        ]
        zero_a = [sum(1 for a, _ in cls if a == 0) for cls in part[1:]]
        if p == 2:
            assert zero_a == [1] * (N - 1)
        else:
            assert sorted(zero_a) == [0] * ((N - 1) // 2) + [2] * ((N - 1) // 2)
    print("\nACCEPTANCE 4: PASS - orbit partitions have the required structure for all N")


# ---------------------------------------------------------------------
# 5. closed-form recursion equals the iterated map
# ---------------------------------------------------------------------

def test_acceptance_5_recursion_oracle():
    t0 = time.time()
    rng = np.random.default_rng(20260811)
    worst = 0.0
    for p, n in [(2, 1), (3, 1), (2, 2), (2, 3), (3, 2)]:
        gf, _ = cached_params(p, n)
        part = cached_partition(p, n)
        for _ in range(100):
            raw = rng.random(len(part))
            total = sum(len(c) * w for c, w in zip(part, raw))
            d = make_error_distribution(
                gf, part, {c[0]: w / total for c, w in zip(part, raw)}
            )
            it = d
            for k in range(1, 6):
                it = ep_step(it)
                diff = float(np.abs(ep_closed_form(d, k).rates - it.rates).max())
                worst = max(worst, diff)
    elapsed = time.time() - t0
    assert worst < 1e-10
    assert elapsed < 60.0
    print(f"\nACCEPTANCE 5: PASS - closed form == iterated recursion on 500 "
          f"random distributions (max diff {worst:.2e}, {elapsed:.1f}s)")


# ---------------------------------------------------------------------
# 6. Monte-Carlo statistics against the analytic formulas
# ---------------------------------------------------------------------

@pytest.mark.statistical
@pytest.mark.parametrize("p,n,e00", [(2, 1, 0.7), (2, 2, 0.6)])
def test_acceptance_6_monte_carlo_vs_analytics(p, n, e00):
    """False-failure probability: 0.001 for (a) (chi-square approximation);
    for (b), 0.0027 per label of nonzero mass after one round, 4 at N = 2
    and 6 at N = 4, so at most 0.011 and 0.016 (normal approximation, union
    bound).  (c) is an event over 200 trials, every one of which must run:
    its rate is not measured."""
    t0 = time.time()
    gf, _ = cached_params(p, n)
    part = cached_partition(p, n)
    N = gf.N
    d = worst_case_distribution(gf, part, e00)
    channel = ChannelModel(label_rates=d.rates)
    base = ProtocolConfig(
        gf=gf, L=1_000_000, rng_seed=303, test_fraction=0.01, ep_rounds=1, pec_r=9
    )

    # (a) post-sift class symmetry at 0.001 significance
    rep = run_protocol(base, channel)
    counts = np.array(rep.post_sift_label_counts).reshape(N, N)
    stat, df = 0.0, 0
    for cls in part:
        vals = np.array([counts[a, b] for a, b in cls], dtype=float)
        if len(cls) < 2 or vals.sum() < 25:
            continue
        mean = vals.mean()
        stat += float(((vals - mean) ** 2 / mean).sum())
        df += len(cls) - 1
    crit = chi2.ppf(0.999, df)
    assert stat < crit

    # (b) one purification round matches the recursion, 3 sigma per label
    want = ep_step(d).rates.ravel()
    emp = np.array(rep.post_ep_label_dist)
    surv = rep.survivors_per_round[-1]
    for idx in range(N * N):
        sigma = np.sqrt(want[idx] * (1 - want[idx]) / surv)
        assert abs(emp[idx] - want[idx]) <= 3 * sigma + 1e-12

    # (c) majority-vote residuals within the analytic bounds, 200 trials
    k, r = 2, 25
    cfg = ProtocolConfig(
        gf=gf, L=1_000_000, rng_seed=819, test_fraction=0.01, ep_rounds=k, pec_r=r
    )
    dk = ep_closed_form(d, k)
    phase_cap = pec_bound_terms(dk, e00, k).at(r).phase
    ok = 0
    for trial in run_trials(cfg, channel, 200):
        assert not trial.aborted
        spin_ok = trial.spin_rate_post_pec <= r * trial.spin_rate_pre_pec + 1e-12
        phase_ok = trial.phase_residual_rate <= phase_cap
        ok += spin_ok and phase_ok
    assert ok >= 198  # >= 99% of 200
    elapsed = time.time() - t0
    assert elapsed < 600.0
    print(f"\nACCEPTANCE 6 (N={N}): PASS - chi2 {stat:.1f} < {crit:.1f}, one-round EP "
          f"within 3 sigma, residual bounds held in {ok}/200 trials ({elapsed:.0f}s)")


# ---------------------------------------------------------------------
# 7. the qubit-group attack story
# ---------------------------------------------------------------------

@pytest.mark.statistical
def test_acceptance_7_attack_reproduction():
    """The seed counts (18 of 20 joint outcomes, three per-qubit aborts) are
    events whose false-failure rates are not measured.  The six-state BER
    tolerance, 0.005, is about 17 sd at 1.3M sifted registers: its
    false-failure probability is negligible (normal approximation)."""
    t0 = time.time()
    q = 0.84
    rep = attack_calculus(16, q)
    assert rep.q_in_interval
    assert abs(rep.eve_ber_at_2 - q / 3) < 1e-12 and rep.eve_ber_at_2 > 0.2764
    assert rep.eve_ber_at_16 < 0.3885

    gf16, gf2 = make_field(2, 4), make_field(2, 1)
    L16, L2 = 150_000_000, 20_000_000
    delta = 0.0065
    grouped = ChannelModel(q=q)
    joint = 0
    for seed in range(20):
        r16 = run_protocol(
            ProtocolConfig(gf=gf16, L=L16, rng_seed=seed, test_count=int(0.01 * L16 / 289),
                           delta=delta, ep_rounds=4, pec_r=25),
            grouped,
        )
        r2 = run_protocol(
            ProtocolConfig(gf=gf2, L=L2, rng_seed=seed, test_count=int(0.01 * L2 / 9),
                           delta=delta, ep_rounds=2, pec_r=9),
            grouped,
        )
        joint += (not r16.aborted and r16.keys_match) and r2.aborted
    assert joint >= 18

    def per_qubit(gf):  # a group with a measured qubit is accounted as fully measured
        return ChannelModel(q=1.0 - (1.0 - rep.per_qubit_q) ** gf.n)

    for seed in (0, 1, 2):
        r = run_protocol(
            ProtocolConfig(gf=gf16, L=L16, rng_seed=seed, test_count=int(0.01 * L16 / 289),
                           delta=delta, ep_rounds=4, pec_r=25),
            per_qubit(gf16),
        )
        assert r.aborted
    rber = run_protocol(
        ProtocolConfig(gf=gf2, L=4_000_000, rng_seed=0, test_count=4000,
                       delta=delta, ep_rounds=2, pec_r=9),
        per_qubit(gf2),
    )
    assert abs(rber.empirical_ber - 0.1272) < 0.005
    elapsed = time.time() - t0
    print(f"\nACCEPTANCE 7: PASS - attack calculus reproduced; grouped attack: N=16 "
          f"completes / N=2 aborts in {joint}/20 seeds; per-qubit attack aborts at N=16, "
          f"six-state BER {rber.empirical_ber:.4f} ({elapsed:.0f}s)")


# ---------------------------------------------------------------------
# 8. measure-and-resend error ceilings
# ---------------------------------------------------------------------

@pytest.mark.statistical
def test_acceptance_8_intercept_resend_ceiling():
    """Each of the five fields' SBMER lies within 3 sd of its ceiling:
    false-failure probability at most 5 x 0.0027 = 0.0135 (normal
    approximation, union bound)."""
    t0 = time.time()
    L = 100_000
    results = []
    for p, n in [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2)]:
        gf, params = cached_params(p, n)
        N = gf.N
        rng = np.random.default_rng(55 + N)
        ap = rng.integers(0, N + 1, L, dtype=np.uint8)
        bp = rng.integers(0, N + 1, L, dtype=np.uint8)
        raw_b = rng.integers(0, N, L, dtype=np.uint8)  # full measurement twirl
        kept = ap == bp  # raw spin label is 0, so the flat label a*N + b is raw_b
        eff_a, _, _, _ = sift(gf, params, ap[kept], raw_b[kept])
        emp = float((eff_a != 0).mean())
        want = (N - 1) / (N + 1) if p == 2 else (N - 1) ** 2 / (N * (N + 1))
        sigma = np.sqrt(want * (1 - want) / eff_a.size)
        assert abs(emp - want) <= 3 * sigma
        results.append(f"N={N}:{emp:.4f}~{want:.4f}")
    elapsed = time.time() - t0
    print(f"\nACCEPTANCE 8: PASS - intercept-resend SBMER ceilings within 3 sigma "
          f"({'; '.join(results)}; {elapsed:.1f}s)")


# ---------------------------------------------------------------------
# 9. desk-scale carve-out
# ---------------------------------------------------------------------

def test_acceptance_9_out_of_scope_note():
    # The adversarial mutual-information bound and the asymptotic
    # large-L guarantees are proof-level statements with no desk-scale
    # observable; criteria 3-8 substitute property checks for them.
    print("\nACCEPTANCE 9: PASS - mutual-information bound and asymptotic claims "
          "are documented as not desk-reproducible; property suites 3-8 stand in")
