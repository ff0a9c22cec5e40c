import numpy as np
import pytest

from conftest import PRIME_POWERS, cached_params, cached_partition, cached_top
from quditqkd import cli, toperator
from quditqkd.exceptions import InvariantViolation
from quditqkd.fields import make_field
from quditqkd.pauli import PauliLabel, pauli_matrix, phase_value
from quditqkd.toperator import (
    SymplecticParams,
    _assemble,
    _coeffs_closure,
    _conjugation_residual,
    _f_table,
    _pair_correction,
    _scalar_order,
    build_T,
    choose_M,
    conjugate_label,
    find_char_poly,
    make_t_operator,
    phase_exponent_f,
    verify_T,
)

TOL = 1e-10


def phase_align(reference, other):
    """Rescale *other* by the global phase matching its largest entry."""
    idx = np.unravel_index(np.argmax(np.abs(other)), other.shape)
    return other * (reference[idx] / other[idx])


# ---------------------------------------------------------------
# symplectic data
# ---------------------------------------------------------------

def test_char_poly_small_fields():
    assert find_char_poly(make_field(2, 1)) == 1
    assert find_char_poly(make_field(3, 1)) == 0
    assert find_char_poly(make_field(2, 2)) == 2  # the element omega


def test_choose_m_small_fields():
    gf = make_field(2, 1)
    m = choose_M(gf, 1)
    assert (m.alpha, m.beta, m.gamma) == (0, 1, 1)
    gf = make_field(3, 1)
    m = choose_M(gf, 0)
    assert (m.alpha, m.beta, m.gamma) == (1, 1, 2)
    gf = make_field(2, 2)
    m = choose_M(gf, 2)
    assert (m.alpha, m.beta, m.gamma) == (0, 1, 2)


@pytest.mark.parametrize("p,n", PRIME_POWERS)
def test_unit_determinant(p, n):
    gf, m = cached_params(p, n)
    assert gf.sub(gf.mul(m.alpha, m.gamma), gf.mul(m.beta, m.beta)) == 1
    assert gf.add(m.alpha, m.gamma) == gf.neg(m.c)


# ---------------------------------------------------------------
# phase function
# ---------------------------------------------------------------

def test_phase_f_at_zero():
    for p, n in PRIME_POWERS:
        gf, params = cached_params(p, n)
        assert phase_exponent_f(gf, params, 0, 0) == (0, 1)


def test_phase_f_qutrit_integral():
    gf, params = cached_params(3, 1)
    for a in gf.elements():
        for b in gf.elements():
            num, den = phase_exponent_f(gf, params, a, b)
            assert den == 1 and num in (0, 1, 2)


def test_qubit_coefficients_match_known_phases():
    # the N=2 operator is (1/2)(I - iX - iZ + XZ)
    top = cached_top(2, 1)
    assert abs(top.coeffs[0, 0] - 0.5) < TOL
    assert abs(top.coeffs[1, 0] + 0.5j) < TOL
    assert abs(top.coeffs[0, 1] + 0.5j) < TOL
    assert abs(top.coeffs[1, 1] - 0.5) < TOL


# ---------------------------------------------------------------
# explicit small operators (independent of the builder)
# ---------------------------------------------------------------

def reference_t2():
    return 0.5 * np.array([[1 - 1j, -1 - 1j], [1 - 1j, 1 + 1j]])


def reference_t3():
    gf = make_field(3, 1)
    w = np.exp(2j * np.pi / 3)
    out = np.zeros((3, 3), dtype=complex)
    for i in range(3):
        for j in range(3):
            out += w ** (2 * (i == 0) + (j == 0)) * pauli_matrix(gf, PauliLabel(i, j))
    return out / 3


def reference_t4():
    gf = make_field(2, 2)
    omega = 2
    out = np.zeros((4, 4), dtype=complex)
    for i in gf.elements():
        for j in gf.elements():
            s = gf.add(i, j)
            half = gf.trace(gf.mul(omega, s))
            coef = (-1j) ** half * (-1.0) ** (gf.trace(s) + (1 if s == 1 else 0))
            out += coef * pauli_matrix(gf, PauliLabel(i, j))
    return out / 4


@pytest.mark.parametrize(
    "p,n,reference",
    [(2, 1, reference_t2), (3, 1, reference_t3), (2, 2, reference_t4)],
)
def test_matches_reference_operator_up_to_phase(p, n, reference):
    T = cached_top(p, n).matrix
    assert np.abs(T - phase_align(T, reference())).max() < TOL


# ---------------------------------------------------------------
# invariants for every prime power
# ---------------------------------------------------------------

@pytest.mark.parametrize("p,n", PRIME_POWERS)
def test_verification_suite(p, n):
    top = cached_top(p, n)
    rep = verify_T(top)
    assert rep.unitarity_residual < TOL
    assert rep.conjugation_residual < TOL
    assert rep.order_up_to_phase == top.gf.N + 1
    assert rep.mub_ok
    assert rep.lambda_flatness < TOL
    assert rep.all_ok


@pytest.mark.parametrize("p,n", [(5, 2), (3, 3), (2, 5)])
def test_verification_suite_beyond_sixteen(p, n):
    rep = verify_T(make_t_operator(make_field(p, n)))
    assert rep.all_ok
    for residual in (rep.unitarity_residual, rep.conjugation_residual,
                     rep.mub_max_deviation, rep.lambda_flatness):
        assert residual < TOL


def test_build_rejects_fields_above_cap():
    with pytest.raises(ValueError, match="N <= 32"):
        build_T(make_field(37, 1), SymplecticParams(0, 0, 0, 0))


@pytest.mark.parametrize("p,n", PRIME_POWERS)
def test_coefficient_magnitudes_flat(p, n):
    top = cached_top(p, n)
    assert np.abs(np.abs(top.coeffs) - 1.0 / top.gf.N).max() < TOL


def test_standard_basis_returns_at_half_period():
    # for odd characteristic, T^((N+1)/2) maps standard basis to standard basis
    for p, n in [(3, 1), (5, 1), (7, 1), (3, 2)]:
        top = cached_top(p, n)
        N = top.gf.N
        Q = np.linalg.matrix_power(top.matrix, (N + 1) // 2)
        assert np.abs(np.sort(np.abs(Q), axis=0)[:-1, :]).max() < TOL


# ---------------------------------------------------------------
# conjugation orbits
# ---------------------------------------------------------------

def test_conjugate_label_identity_power():
    gf, params = cached_params(2, 2)
    for a in gf.elements():
        for b in gf.elements():
            assert conjugate_label(gf, params, (a, b), 0) == (a, b)
            assert conjugate_label(gf, params, (a, b), gf.N + 1) == (a, b)


def test_conjugate_label_qubit():
    gf, params = cached_params(2, 1)
    assert conjugate_label(gf, params, (1, 0), 1) == (0, 1)


def test_conjugate_label_qutrit_half_period_negates():
    gf, params = cached_params(3, 1)
    for a in gf.elements():
        for b in gf.elements():
            assert conjugate_label(gf, params, (a, b), 2) == (gf.neg(a), gf.neg(b))


def test_conjugate_label_negative_power_inverts():
    gf, params = cached_params(2, 3)
    for a in gf.elements():
        for b in gf.elements():
            fwd = conjugate_label(gf, params, (a, b), 3)
            assert conjugate_label(gf, params, fwd, -3) == (a, b)


def test_equiv_classes_qubit():
    part = cached_partition(2, 1)
    assert part == [((0, 0),), ((0, 1), (1, 0), (1, 1))]


def test_equiv_classes_qutrit():
    part = cached_partition(3, 1)
    assert part[0] == ((0, 0),)
    as_sets = [set(c) for c in part[1:]]
    assert {(0, 1), (1, 2), (0, 2), (2, 1)} in as_sets
    assert {(1, 0), (1, 1), (2, 0), (2, 2)} in as_sets


@pytest.mark.parametrize("p,n", PRIME_POWERS)
def test_equiv_class_structure(p, n):
    gf, _ = cached_params(p, n)
    part = cached_partition(p, n)
    N = gf.N
    assert len(part) == N
    assert part[0] == ((0, 0),)
    all_labels = [lbl for cls in part for lbl in cls]
    assert len(all_labels) == len(set(all_labels)) == N * N
    for cls in part[1:]:
        assert len(cls) == N + 1
    zero_a_counts = [sum(1 for a, _ in cls if a == 0) for cls in part[1:]]
    if p == 2:
        # exactly one label of the form (0, c) per nonzero class
        assert zero_a_counts == [1] * (N - 1)
    else:
        # (N-1)/2 classes hold exactly two labels of the form (0, b), the rest none
        assert sorted(zero_a_counts) == [0] * ((N - 1) // 2) + [2] * ((N - 1) // 2)


# ---------------------------------------------------------------
# the paper's explicit coefficient formula, as an oracle
# ---------------------------------------------------------------

def explicit_phi_tables(gf, params):
    """phi_1 and phi_2 of the explicit coefficient formula, indexed [a, b]."""
    al, be, ga = params.alpha, params.beta, params.gamma
    add, mul, sub = gf.add_table, gf.mul_table, gf.sub_table
    two = gf.scalar_mul(2, 1)
    t2 = gf.sub(two, gf.add(al, ga))  # 2 - alpha - gamma, nonzero
    dinv = gf.inv(gf.mul(t2, t2))
    g1 = gf.sub(ga, 1)
    a1 = gf.sub(al, 1)
    be2 = gf.mul(be, be)
    # coefficients of a^2, ab, b^2 inside phi_1
    c_a2 = gf.mul(gf.mul(be, be2), g1)
    c_ab = gf.neg(gf.mul(g1, gf.add(gf.mul(a1, a1), gf.mul(be2, gf.sub(gf.add(al, al), 1)))))
    c_b2 = gf.mul(be, gf.add(gf.mul(gf.mul(al, ga), a1), g1))
    # coefficients inside phi_2
    d_sym = gf.sub(gf.add(al, ga), gf.scalar_mul(2, gf.mul(al, ga)))  # alpha+gamma-2*alpha*gamma
    A, B = np.ogrid[:gf.N, :gf.N]
    aa, bb, ab = mul[A, A], mul[B, B], mul[A, B]
    phi1 = mul[dinv, add[add[mul[c_a2, aa], mul[c_ab, ab]], mul[c_b2, bb]]]
    if gf.p == 2:
        t2inv = gf.inv(t2)
        ta = mul[sub[mul[g1, A], mul[be, B]], t2inv]
        tb = mul[sub[mul[a1, B], mul[be, A]], t2inv]
        corr = add[_pair_correction(gf, ta, al), _pair_correction(gf, tb, ga)]
        phi1 = add[phi1, mul[be, corr]]
    sym = add[add[aa, mul[two, mul[be, ab]]], bb]
    mix = mul[two, mul[be2, add[mul[ga, aa], mul[al, bb]]]]
    phi2 = mul[gf.mul(be, dinv), add[mul[d_sym, sym], mix]]
    return phi1, phi2


def explicit_coeffs(gf, params, branch_per_coeff):
    """Lambda_ab from the explicit formula; theta = 0 (Lambda_00 real positive).

    For p = 2 the half of Tr(phi_2) needs a branch of omega_2^(1/2) = +i:
    taken per basis coefficient of w = a+b, or globally on Tr(phi_2).
    Neither branch is valid for every N (see the tests below)."""
    N, p = gf.N, gf.p
    tr = gf.trace_table
    phi1, phi2 = explicit_phi_tables(gf, params)
    if p != 2:
        inv2 = pow(2, p - 2, p)
        omega = np.exp(2j * np.pi / p)
        values = np.array([omega**e / N for e in range(p)])
        return values[(tr[phi1] - inv2 * tr[phi2]) % p]
    # p = 2: phi_2 = (beta/c) * (a+b)^2
    if branch_per_coeff:
        u = gf.div(params.beta, gf.add(params.alpha, params.gamma))
        ug2 = np.array([gf.trace(gf.mul(u, gf.mul(g, g))) for g in gf.basis])
        s2 = gf.coeff_table[gf.add_table] @ ug2  # indexed [a, b] through w = a+b
    else:
        s2 = tr[phi2]
    values = np.array([1j**k / N for k in range(4)])
    return values[(2 * tr[phi1] - s2) % 4]


ODD_FIELDS_TO_31 = [(3, 1), (5, 1), (7, 1), (3, 2), (11, 1), (13, 1), (17, 1), (19, 1),
                    (23, 1), (5, 2), (3, 3), (29, 1), (31, 1)]


@pytest.mark.parametrize(
    "p,n,branch_per_coeff",
    [(2, 1, True), (2, 3, True), (2, 4, True), (2, 2, False), (2, 5, False)]
    + [(p, n, False) for p, n in ODD_FIELDS_TO_31],
)
def test_built_coefficients_equal_explicit_oracle_bitwise(p, n, branch_per_coeff):
    # wherever the explicit formula gives a valid T, the closure gives the
    # same Lambda, down to the last bit
    gf, params = cached_params(p, n)
    top = build_T(gf, params)
    oracle = explicit_coeffs(gf, params, branch_per_coeff)
    assert top.coeffs.dtype == oracle.dtype
    assert top.coeffs.tobytes() == oracle.tobytes()


# ---------------------------------------------------------------
# the checks reject wrong candidates
# ---------------------------------------------------------------

def unitarity_residual(T):
    return float(np.abs(T.conj().T @ T - np.eye(T.shape[0])).max())


def scalar_conjugation_residual(gf, params, T, f_table):
    """The conjugation check label by label with scalar field calls:
    max |X_a Z_b T - omega^f(a,b) T X_a' Z_b'| over all N^2 labels."""
    omega = np.exp(2j * np.pi / gf.p)
    num, den = f_table
    worst = 0.0
    for a in gf.elements():
        for b in gf.elements():
            ap, bp = conjugate_label(gf, params, (a, b), 1)
            ph = phase_value(gf.p, int(num[a, b]), int(den[a, b]))
            src = [gf.sub(u, a) for u in gf.elements()]
            left = np.array([omega ** gf.trace(gf.mul(b, w)) for w in src])[:, None] * T[src, :]
            cols = [gf.add(ap, v) for v in gf.elements()]
            zb = np.array([omega ** gf.trace(gf.mul(bp, v)) for v in gf.elements()])
            right = T[:, cols] * zb[None, :]
            worst = max(worst, float(np.abs(left - ph * right).max()))
    return worst


@pytest.mark.parametrize("p,n", PRIME_POWERS)
def test_conjugation_residual_matches_scalar_reference(p, n):
    top = cached_top(p, n)
    gf = top.gf
    # the built T, and one whose columns carry spurious phases so that
    # the relation fails by a different amount on different labels
    phases = np.exp(1j * np.arange(gf.N))
    for T in (top.matrix, top.matrix * phases[None, :]):
        new = _conjugation_residual(gf, top.params, T, top.f_table)
        assert new == scalar_conjugation_residual(gf, top.params, T, top.f_table)


@pytest.mark.parametrize("p,n", [(3, 1), (2, 2)])
def test_conjugation_residual_covers_every_label(p, n):
    top = cached_top(p, n)
    num, den = top.f_table
    for a in top.gf.elements():
        for b in top.gf.elements():
            wrong = num.copy()
            wrong[a, b] = (wrong[a, b] + 1) % (p * den[a, b])
            assert _conjugation_residual(top.gf, top.params, top.matrix, (wrong, den)) > 0.5


def test_global_branch_candidate_fails_conjugation_at_n8():
    gf, params = cached_params(2, 3)
    T = _assemble(gf, explicit_coeffs(gf, params, branch_per_coeff=False))
    assert unitarity_residual(T) < 1e-16
    residual = _conjugation_residual(gf, params, T, _f_table(gf, params))
    assert residual == pytest.approx(0.7071067811865476, abs=1e-12)


def test_per_coefficient_candidate_fails_unitarity_at_n4():
    gf, params = cached_params(2, 2)
    T = _assemble(gf, explicit_coeffs(gf, params, branch_per_coeff=True))
    assert unitarity_residual(T) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("p,n", PRIME_POWERS)
def test_closure_candidate_passes_every_check(p, n):
    top = cached_top(p, n)
    gf = top.gf
    lam = _coeffs_closure(gf, top.params, top.f_table)
    T = _assemble(gf, lam)
    assert unitarity_residual(T) < TOL
    assert _conjugation_residual(gf, top.params, T, top.f_table) < TOL
    assert _scalar_order(T, TOL) == gf.N + 1
    assert np.abs(np.abs(lam) - 1.0 / gf.N).max() < TOL


def test_build_rejects_a_failing_candidate(monkeypatch):
    real = toperator._coeffs_closure

    def one_entry_negated(gf, params, f_table):
        lam = real(gf, params, f_table)
        lam[1, 0] = -lam[1, 0]
        return lam

    monkeypatch.setattr(toperator, "_coeffs_closure", one_entry_negated)
    gf, params = cached_params(2, 2)
    with pytest.raises(InvariantViolation, match="T construction failed"):
        build_T(gf, params)
    assert cli.main(["verify", "--p", "2", "--n", "2"]) == 4
