import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
import pytest

from conftest import cached_params, cached_partition
from quditqkd.exceptions import ConfigError
from quditqkd.protocol import _r_grid
from quditqkd.rates import (
    ErrorDistribution,
    _bounds_apply,
    attack_calculus,
    ep_closed_form,
    ep_step,
    eve_ber,
    intercept_resend_sbmer_ceiling,
    make_error_distribution,
    pec_bound_terms,
    qer_estimator,
    thresholds,
    worst_case_distribution,
)

SQRT5 = math.sqrt(5.0)


def random_class_symmetric(p, n, rng):
    gf, _ = cached_params(p, n)
    part = cached_partition(p, n)
    raw = rng.random(len(part))
    total = sum(len(cls) * w for cls, w in zip(part, raw))
    return make_error_distribution(gf, part, {cls[0]: w / total for cls, w in zip(part, raw)})


# ---------------------------------------------------------------
# distribution construction
# ---------------------------------------------------------------

def test_noiseless_distribution():
    gf, _ = cached_params(2, 1)
    d = make_error_distribution(gf, cached_partition(2, 1), {(0, 0): 1.0})
    assert d.rates[0, 0] == 1.0 and d.rates.sum() == 1.0


def test_qubit_expansion():
    gf, _ = cached_params(2, 1)
    d = make_error_distribution(gf, cached_partition(2, 1), {(0, 0): 0.7, (0, 1): 0.1})
    assert np.allclose(d.rates, [[0.7, 0.1], [0.1, 0.1]])


def test_worst_case_shape():
    gf, _ = cached_params(2, 2)
    part = cached_partition(2, 2)
    d = worst_case_distribution(gf, part, 0.6)
    cls01 = next(cls for cls in part if (0, 1) in cls)
    for a in gf.elements():
        for b in gf.elements():
            if (a, b) == (0, 0):
                assert d.rates[a, b] == 0.6
            elif (a, b) in cls01:
                assert abs(d.rates[a, b] - 0.4 / 5) < 1e-15
            else:
                assert d.rates[a, b] == 0.0


def test_rejects_negative_and_unnormalized():
    gf, _ = cached_params(2, 1)
    part = cached_partition(2, 1)
    with pytest.raises(ValueError):
        make_error_distribution(gf, part, {(0, 0): -0.1, (0, 1): 1.1 / 3})
    with pytest.raises(ValueError):
        make_error_distribution(gf, part, {(0, 0): 0.5})


def test_rejects_class_asymmetry():
    gf, _ = cached_params(2, 1)
    rates = np.array([[0.7, 0.2], [0.05, 0.05]])
    with pytest.raises(ValueError):
        ErrorDistribution(gf, rates, partition=cached_partition(2, 1))


@pytest.mark.parametrize("p,n", [(3, 1), (5, 1), (3, 2)])
def test_central_symmetry_checked_against_scalar_negation(p, n):
    # move mass between (a, b) and (-a, -b): 2e-12 apart is rejected, 5e-13 is not
    gf, _ = cached_params(p, n)
    rates = np.full((gf.N, gf.N), 1.0 / gf.N**2)
    a, b = 1, gf.N - 1
    for shift, bad in [(1e-12, True), (2.5e-13, False)]:
        moved = rates.copy()
        moved[a, b] += shift
        moved[gf.sub(0, a), gf.sub(0, b)] -= shift
        if bad:
            with pytest.raises(ValueError, match="central symmetry"):
                ErrorDistribution(gf, moved)
        else:
            ErrorDistribution(gf, moved)


# ---------------------------------------------------------------
# purification recursion
# ---------------------------------------------------------------

def test_ep_fixed_point_noiseless():
    gf, _ = cached_params(2, 2)
    d = make_error_distribution(gf, cached_partition(2, 2), {(0, 0): 1.0})
    out = ep_step(d)
    assert np.allclose(out.rates, d.rates)


def test_ep_fixed_point_uniform_qubit():
    gf, _ = cached_params(2, 1)
    d = ErrorDistribution(gf, np.full((2, 2), 0.25))
    assert np.allclose(ep_step(d).rates, 0.25)


def brute_force_ep(gf, rates):
    """Independent oracle: direct double sum over the recursion."""
    N = gf.N
    out = np.zeros((N, N))
    for a in range(N):
        for b in range(N):
            out[a, b] = sum(rates[a, c] * rates[a, gf.sub(b, c)] for c in range(N))
    denom = sum(rates[a].sum() ** 2 for a in range(N))
    return out / denom


def test_ep_step_against_brute_force():
    gf, _ = cached_params(2, 1)
    d = make_error_distribution(gf, cached_partition(2, 1), {(0, 0): 0.7, (0, 1): 0.1})
    assert np.abs(ep_step(d).rates - brute_force_ep(gf, d.rates)).max() < 1e-14


def test_ep_step_against_brute_force_random():
    rng = np.random.default_rng(17)
    for p, n in [(2, 2), (3, 1), (2, 3)]:
        gf, _ = cached_params(p, n)
        d = random_class_symmetric(p, n, rng)
        assert np.abs(ep_step(d).rates - brute_force_ep(gf, d.rates)).max() < 1e-13


def test_ep_preserves_normalization_and_central_symmetry():
    rng = np.random.default_rng(3)
    for p, n in [(2, 2), (3, 1), (3, 2), (2, 4)]:
        gf, _ = cached_params(p, n)
        d = random_class_symmetric(p, n, rng)
        for _ in range(3):
            d = ep_step(d)
            assert abs(d.rates.sum() - 1.0) < 1e-12
            for a in gf.elements():
                for b in gf.elements():
                    assert abs(d.rates[a, b] - d.rates[gf.sub(0, a), gf.sub(0, b)]) < 1e-12


def test_closed_form_k0_is_identity():
    rng = np.random.default_rng(9)
    d = random_class_symmetric(2, 2, rng)
    assert np.allclose(ep_closed_form(d, 0).rates, d.rates)


def test_closed_form_matches_iteration():
    rng = np.random.default_rng(11)
    for p, n in [(2, 1), (3, 1), (2, 2), (2, 3), (3, 2)]:
        d = random_class_symmetric(p, n, rng)
        it = d
        for k in range(1, 6):
            it = ep_step(it)
            assert np.abs(ep_closed_form(d, k).rates - it.rates).max() < 1e-10


def test_closed_form_survives_underflow_at_deep_k():
    # (e00 + e01)^(2^k) underflows double precision by k = 12 at e00 = 0.6;
    # the closed form still tracks the round-by-round recursion
    for p, n in [(2, 1), (2, 4), (3, 1)]:
        gf, _ = cached_params(p, n)
        d = worst_case_distribution(gf, cached_partition(p, n), 0.6) if p == 2 else \
            random_class_symmetric(p, n, np.random.default_rng(4))
        it = d
        for k in range(1, 15):
            it = ep_step(it)
            got = ep_closed_form(d, k).rates
            assert np.isfinite(got).all() and abs(got.sum() - 1.0) < 1e-12, (p, n, k)
            assert np.abs(got - it.rates).max() < 1e-10, (p, n, k)


def test_closed_form_worst_case_formulas():
    # for the worst-case shape at N = 2^n the row-0 rates have an explicit form
    for p, n, e00 in [(2, 1, 0.7), (2, 2, 0.6), (2, 3, 0.55)]:
        gf, _ = cached_params(p, n)
        part = cached_partition(p, n)
        d = worst_case_distribution(gf, part, e00)
        e01 = (1.0 - e00) / (gf.N + 1)
        rows = d.rates.sum(axis=1)
        for k in range(1, 5):
            out = ep_closed_form(d, k)
            denom_tail = sum(rows[i] ** (2**k) for i in range(1, gf.N))
            denom = 2 * ((e00 + e01) ** (2**k) + denom_tail)
            want00 = ((e00 + e01) ** (2**k) + (e00 - e01) ** (2**k)) / denom
            want01 = ((e00 + e01) ** (2**k) - (e00 - e01) ** (2**k)) / denom
            assert abs(out.rates[0, 0] - want00) < 1e-12
            assert abs(out.rates[0, 1] - want01) < 1e-12
            for b in gf.elements():
                if b not in (0, 1):
                    assert abs(out.rates[0, b]) < 1e-12


# ---------------------------------------------------------------
# dominance
# ---------------------------------------------------------------

@dataclass(frozen=True)
class DominanceResult:
    applicable: bool
    holds: Optional[bool]
    reason: str


def dominance_check(d: ErrorDistribution, k_max: int = 8) -> DominanceResult:
    """Empirically confirm e_00 stays the largest phase-row entry after
    every purification round up to k_max, under the dominance hypothesis
    e_00 > 1/(N+2) (p = 2) or e_00 > 2/(N+3) (p > 2)."""
    gf = d.gf
    bound = 1.0 / (gf.N + 2) if gf.p == 2 else 2.0 / (gf.N + 3)
    if d.e00 <= bound:
        return DominanceResult(False, None, f"e00 = {d.e00:.4f} <= {bound:.4f}: hypothesis not met")
    cur = d
    for k in range(1, k_max + 1):
        cur = ep_step(cur)
        row0 = cur.rates[0]
        # strict dominance can degenerate to a floating-point tie as the
        # leading rates converge, so compare with a small slack
        if not (row0[0] >= row0[1:] - 1e-12).all():
            return DominanceResult(True, False, f"e00 not dominant after {k} rounds")
    return DominanceResult(True, True, f"e00 dominant through {k_max} rounds")


def test_dominance_trivial():
    gf, _ = cached_params(2, 1)
    d = make_error_distribution(gf, cached_partition(2, 1), {(0, 0): 1.0})
    res = dominance_check(d)
    assert res.applicable and res.holds


def test_dominance_worst_case_n4():
    gf, _ = cached_params(2, 2)
    d = worst_case_distribution(gf, cached_partition(2, 2), 0.3)  # 0.3 > 1/6
    res = dominance_check(d, k_max=8)
    assert res.applicable and res.holds


def test_dominance_precondition_not_met():
    gf, _ = cached_params(2, 1)
    d = worst_case_distribution(gf, cached_partition(2, 1), 0.2)  # 0.2 < 1/4
    res = dominance_check(d)
    assert not res.applicable and res.holds is None


def test_e00_dominates_row_zero():
    # the perfect-square argument: e00 - e0b is a half sum of squares
    rng = np.random.default_rng(23)
    for _ in range(20):
        gf, _ = cached_params(2, 2)
        d = random_class_symmetric(2, 2, rng)
        if d.e00 <= 1.0 / (gf.N + 2):
            continue
        out = ep_step(d)
        assert (out.rates[0, 0] >= out.rates[0, 1:] - 1e-15).all()


# ---------------------------------------------------------------
# PEC bounds
# ---------------------------------------------------------------

def test_pec_bounds_noiseless():
    gf, _ = cached_params(2, 2)
    d = make_error_distribution(gf, cached_partition(2, 2), {(0, 0): 1.0})
    b = pec_bound_terms(d, 1.0, k=0).at(1)
    assert b.spin == 0.0 and b.phase == 0.0


def test_pec_phase_bound_value():
    gf, _ = cached_params(2, 2)
    part = cached_partition(2, 2)
    d1 = ep_closed_form(worst_case_distribution(gf, part, 0.6), 1)
    got = pec_bound_terms(d1, 0.6, k=1).at(50)
    rho = (0.52 / 0.68) ** 4
    assert abs(got.phase - 3 * (1 - rho / 2) ** 50) < 1e-15
    assert abs(got.phase - 2.6e-4) < 1.5e-5


def test_pec_phase_bound_monotone_in_r():
    gf, _ = cached_params(2, 3)
    part = cached_partition(2, 3)
    d = ep_closed_form(worst_case_distribution(gf, part, 0.5), 2)
    prev = None
    for r in (1, 3, 5, 9, 21):
        cur = pec_bound_terms(d, 0.5, k=2).at(r).phase
        if prev is not None:
            assert cur < prev
        prev = cur


def _residual_bounds_reference(d_k, e00_initial, k, r):
    """The residual bounds as one expression per bound, before their r-free split."""
    N = d_k.gf.N
    spin = r * d_k.spin_error_rate()
    if e00_initial >= 1.0:
        return spin, 0.0
    x = (1.0 - e00_initial) / (N + 1)
    rho = ((e00_initial - x) / (e00_initial + x)) ** (2 ** (k + 1))
    return spin, (N - 1) * (1.0 - rho / 2.0) ** r


@pytest.mark.parametrize("n", [1, 2, 4])
def test_pec_bound_terms_evaluate_bit_for_bit(n):
    # the r-free terms evaluated at every r the protocol searches give the
    # one-expression bounds exactly, so reports keep their bytes
    gf, _ = cached_params(2, n)
    part = cached_partition(2, n)
    grid = _r_grid(10**6)
    for e00 in (0.31, 0.6, 0.8425, 0.97, 1.0):
        wc = worst_case_distribution(gf, part, e00)
        for k in range(7):
            d_k = ep_closed_form(wc, k)
            terms = pec_bound_terms(d_k, e00, k)
            for r in grid:
                want = _residual_bounds_reference(d_k, e00, k, r)
                b = terms.at(r)
                assert (b.spin, b.phase) == want, (e00, k, r)


def test_pec_bounds_validate_inputs():
    gf, _ = cached_params(3, 1)
    d = make_error_distribution(gf, cached_partition(3, 1), {(0, 0): 1.0})
    with pytest.raises(ValueError):
        pec_bound_terms(d, 1.0, 0).at(1)  # p != 2
    gf2, _ = cached_params(2, 1)
    d2 = worst_case_distribution(gf2, cached_partition(2, 1), 0.2)
    with pytest.raises(ValueError):
        pec_bound_terms(d2, 0.2, 0).at(1)  # e00 below the dominance region
    with pytest.raises(ValueError, match="r must be >= 1"):
        pec_bound_terms(d2, 0.5, 0).at(0)


@pytest.mark.parametrize("p,n", [(2, 1), (2, 2), (2, 4), (3, 1)])
def test_bounds_domain_is_what_pec_bound_terms_accepts(p, n):
    gf, _ = cached_params(p, n)
    d = make_error_distribution(gf, cached_partition(p, n), {(0, 0): 1.0})
    edge = 1.0 / (gf.N + 2)
    cases = {edge: False, math.nextafter(edge, 0.0): False, math.nextafter(edge, 1.0): True,
             0.5: True, 1.0: True, math.nextafter(1.0, 2.0): False}
    for e00, inside in cases.items():
        want = inside and p == 2
        assert _bounds_apply(gf, e00) is want, e00
        if want:
            assert pec_bound_terms(d, e00, 0).at(1).spin == 0.0
        else:
            with pytest.raises(ValueError, match="need p = 2"):
                pec_bound_terms(d, e00, 0)


# ---------------------------------------------------------------
# thresholds and estimator
# ---------------------------------------------------------------

def test_threshold_table():
    want = {2: (27.64, 27.64), 4: (43.31, 27.07), 8: (60.44, 32.74), 16: (75.34, 38.85)}
    for N, (sbmer, ber) in want.items():
        t = thresholds(N)
        assert abs(100 * t.e_sbmer - sbmer) < 0.005
        assert abs(100 * t.e_ber - ber) < 0.005


def test_threshold_relations():
    for N in (2, 4, 8, 16):
        t = thresholds(N)
        g = (N + 1) * (SQRT5 - 2)
        assert abs(t.e_qer - g / (1 + g)) < 1e-15
        assert abs(t.e_sbmer - N * t.e_qer / (N + 1)) < 1e-15
        factor = 1.0 if N == 2 else 0.5 + 1.0 / (N * math.log2(N))
        assert abs(t.e_ber - t.e_sbmer * factor) < 1e-15


def test_threshold_boundary_self_consistent():
    # e00 at the tolerance edge solves (e00-x)^2 = 2x(e00+x), x = (1-e00)/(N+1)
    for N in (2, 4, 8, 16):
        e00 = 1.0 - thresholds(N).e_qer
        x = (1.0 - e00) / (N + 1)
        assert abs((e00 - x) ** 2 - 2 * x * (e00 + x)) < 1e-9


def test_sbmer_monotone_in_n():
    vals = [thresholds(2**n).e_sbmer for n in range(1, 5)]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_thresholds_reject_non_power_of_two():
    with pytest.raises(ValueError):
        thresholds(3)


def test_qer_estimator():
    assert qer_estimator([0.0, 0.0, 0.0]) == 0.0
    assert abs(qer_estimator([0.1, 0.1, 0.1]) - 0.15) < 1e-15
    with pytest.raises(ValueError):
        qer_estimator([0.1, 1.2, 0.0])


def test_qer_estimator_sampling_consistency():
    # estimator exceeds true QER - (N+1) delta / N except with small probability
    rng = np.random.default_rng(31)
    N = 4
    true_rates = [0.0] + [0.35] * N  # per-set disagreement rates
    true_qer = sum(true_rates) / N
    delta, m = 0.05, 600
    failures = 0
    reps = 400
    for _ in range(reps):
        e_hats = [rng.binomial(m, r) / m for r in true_rates]
        if qer_estimator(e_hats) < true_qer - (N + 1) * delta / N:
            failures += 1
    assert failures <= reps * 0.01


# ---------------------------------------------------------------
# attack calculus
# ---------------------------------------------------------------

def test_attack_report_values():
    rep = attack_calculus(16, 0.84)
    assert abs(rep.eve_ber_at_2 - 0.84 / 3) < 1e-15
    assert rep.eve_ber_at_2 > 0.2764
    assert rep.eve_ber_at_16 < 0.3885
    assert abs(rep.q_interval[0] - 0.8292) < 5e-5
    assert abs(rep.q_interval[1] - 0.8539) < 5e-5
    assert rep.q_in_interval
    assert abs(rep.per_qubit_q - 0.3817) < 5e-5
    assert abs(rep.per_qubit_six_state_ber - 0.1272) < 5e-5
    assert rep.defeats_qubit_schemes and rep.survives_at_16


def test_attack_zero_strength():
    rep = attack_calculus(4, 0.0)
    assert rep.eve_ber_at_N == 0.0 and rep.eve_ber_at_2 == 0.0
    assert not rep.defeats_qubit_schemes


def test_attack_interval_endpoints_are_break_even():
    # lower endpoint: the N=2 attack rate equals the six-state tolerance
    assert abs(eve_ber(2, 0.3 * (5 - SQRT5)) - (5 - SQRT5) / 10) < 1e-15
    # upper endpoint: the N=16 attack rate equals the N=16 tolerance
    q_hi = (68 / 1335) * (19 - SQRT5)
    assert abs(eve_ber(16, q_hi) - thresholds(16).e_ber) < 1e-12


def test_eve_ber_is_finite_or_refused():
    # the closed form as written, bit for bit, wherever attack can reach it
    for n in range(1, 17):
        N = 2**n
        for q in np.linspace(0.0, 1.0, 101).tolist() + [0.84, 0.3 * (5 - SQRT5)]:
            assert eve_ber(N, q) == q * (N - 1) * (N * n + 2) / (2.0 * N * n * (N + 1))
    assert math.isfinite(eve_ber(2**507, 1.0)) and math.isfinite(eve_ber(2**507, 0.84))
    # past n = 507 the float denominator overflows (nan up to n = 1014, then OverflowError)
    for n in (508, 510, 1014, 1100):
        with pytest.raises(ConfigError, match="above n = 507"):
            eve_ber(2**n, 0.84)


def test_intercept_resend_ceilings():
    assert abs(intercept_resend_sbmer_ceiling(4, 2) - 3 / 5) < 1e-15
    assert abs(intercept_resend_sbmer_ceiling(3, 3) - 1 / 3) < 1e-15
    assert abs(intercept_resend_sbmer_ceiling(9, 3) - 64 / 90) < 1e-15


def test_attack_rejects_bad_input():
    with pytest.raises(ValueError):
        attack_calculus(16, 1.5)
    with pytest.raises(ValueError):
        attack_calculus(6, 0.5)
