import json

import numpy as np
import pytest

from conftest import PRIME_POWERS, cached_params, cached_partition, cached_top
from quditqkd import cli, toperator
from quditqkd.exceptions import InvariantViolation
from quditqkd.fields import _prime_divisors, make_field
from quditqkd.toperator import (
    SymplecticParams,
    _assemble,
    _coeffs_closure,
    _conjugation_residual,
    _f_table,
    _walk_powers,
    build_T,
    choose_M,
    conjugation_tables,
    equiv_classes,
    find_char_poly,
    verify_T,
)
from weyl_oracle import pauli_matrix, phase_value

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


@pytest.mark.parametrize("p,n", [(2, 2), (3, 1), (5, 1)])
def test_choose_m_rejects_c_outside_the_field(p, n):
    gf = make_field(p, n)
    for c in (-1, gf.N):
        with pytest.raises(ValueError, match="not an element"):
            choose_M(gf, c)


# (c, alpha, beta, gamma) for every prime power N <= 256, keyed by (p, n)
PINNED_PARAMS = {
    (2, 1): (1, 0, 1, 1), (3, 1): (0, 1, 1, 2), (2, 2): (2, 0, 1, 2), (5, 1): (4, 0, 2, 1),
    (7, 1): (3, 1, 3, 3), (2, 3): (2, 0, 1, 2), (3, 2): (4, 1, 4, 7), (11, 1): (5, 1, 2, 5),
    (13, 1): (7, 0, 5, 6), (2, 4): (2, 0, 1, 2), (17, 1): (7, 0, 4, 10),
    (19, 1): (6, 1, 7, 12), (23, 1): (3, 1, 8, 19), (5, 2): (6, 0, 2, 24),
    (3, 3): (11, 1, 15, 18), (29, 1): (4, 0, 12, 25), (31, 1): (4, 1, 5, 26),
    (2, 5): (6, 0, 1, 6), (37, 1): (7, 0, 6, 30), (41, 1): (8, 0, 9, 33),
    (43, 1): (3, 1, 9, 39), (47, 1): (8, 1, 15, 38), (7, 2): (11, 1, 10, 44),
    (53, 1): (5, 0, 23, 48), (59, 1): (9, 1, 15, 49), (61, 1): (10, 0, 11, 51),
    (2, 6): (2, 0, 1, 2), (67, 1): (3, 1, 14, 63), (71, 1): (5, 1, 8, 65),
    (73, 1): (7, 0, 27, 66), (79, 1): (4, 1, 28, 74), (3, 4): (3, 1, 9, 8),
    (83, 1): (3, 1, 24, 79), (89, 1): (8, 0, 34, 81), (97, 1): (7, 0, 22, 90),
    (101, 1): (12, 0, 10, 89), (103, 1): (3, 1, 43, 99), (107, 1): (5, 1, 10, 101),
    (109, 1): (13, 0, 33, 96), (113, 1): (5, 0, 15, 108), (11, 2): (14, 1, 42, 117),
    (5, 3): (6, 0, 2, 24), (127, 1): (3, 1, 54, 123), (2, 7): (8, 0, 1, 8),
    (131, 1): (6, 1, 56, 124), (137, 1): (5, 0, 37, 132), (139, 1): (6, 1, 39, 132),
    (149, 1): (4, 0, 44, 145), (151, 1): (4, 1, 30, 146), (157, 1): (7, 0, 28, 150),
    (163, 1): (3, 1, 22, 159), (167, 1): (3, 1, 50, 163), (13, 2): (17, 0, 5, 165),
    (173, 1): (4, 0, 80, 169), (179, 1): (22, 1, 79, 156), (181, 1): (9, 0, 19, 172),
    (191, 1): (5, 1, 39, 185), (193, 1): (7, 0, 81, 186), (197, 1): (4, 0, 14, 193),
    (199, 1): (4, 1, 81, 194), (211, 1): (6, 1, 25, 204), (223, 1): (3, 1, 21, 219),
    (227, 1): (3, 1, 26, 223), (229, 1): (10, 0, 107, 219), (233, 1): (12, 0, 89, 221),
    (239, 1): (5, 1, 94, 233), (241, 1): (13, 0, 64, 228), (3, 5): (12, 1, 109, 26),
    (251, 1): (9, 1, 95, 241), (2, 8): (2, 0, 1, 2),
}


def test_params_are_pinned_for_every_field_up_to_256():
    got = {}
    for p, n in PINNED_PARAMS:
        gf = make_field(p, n)
        m = choose_M(gf, find_char_poly(gf))
        got[p, n] = (m.c, m.alpha, m.beta, m.gamma)
    assert got == PINNED_PARAMS


FIELDS_TO_64 = [pn for pn in PINNED_PARAMS if pn[0] ** pn[1] <= 64]


def m_power(gf, params, k):
    """M^k as a 2x2 tuple over GF(N) by scalar field calls; k is reduced mod N+1."""
    k %= gf.N + 1
    m = ((1, 0), (0, 1))
    step = ((params.alpha, params.beta), (params.beta, params.gamma))
    for _ in range(k):
        m = _mat2_mul(gf, m, step)
    return m


def _mat2_mul(gf, x, y):
    return tuple(
        tuple(gf.add(gf.mul(x[i][0], y[0][j]), gf.mul(x[i][1], y[1][j])) for j in range(2))
        for i in range(2)
    )


def scalar_equiv_classes(gf, params):
    """Orbits of GF(N)^2 under M, walked label by label with scalar field calls."""
    m = m_power(gf, params, 1)
    seen = set()
    classes = []
    for a in gf.elements():
        for b in gf.elements():
            if (a, b) in seen:
                continue
            orbit = set()
            cur = (a, b)
            while cur not in orbit:
                orbit.add(cur)
                cur = (gf.add(gf.mul(m[0][0], cur[0]), gf.mul(m[0][1], cur[1])),
                       gf.add(gf.mul(m[1][0], cur[0]), gf.mul(m[1][1], cur[1])))
            seen |= orbit
            classes.append(tuple(sorted(orbit)))
    classes.sort(key=lambda cls: cls[0])
    return classes


@pytest.mark.parametrize("p,n", FIELDS_TO_64)
def test_m_has_order_exactly_n_plus_one(p, n):
    gf, params = cached_params(p, n)
    N = gf.N
    ca, cb = conjugation_tables(gf, params)
    A, B = np.ogrid[:N, :N]
    # row N followed by row 1 is M^(N+1)
    assert (ca[1][ca[N], cb[N]] == A).all() and (cb[1][ca[N], cb[N]] == B).all()
    for q in _prime_divisors(N + 1):
        k = (N + 1) // q
        assert not ((ca[k] == A).all() and (cb[k] == B).all())


@pytest.mark.parametrize("p,n", FIELDS_TO_64)
def test_conjugation_tables_match_scalar_powers(p, n):
    gf, params = cached_params(p, n)
    add, mul = gf.add_table, gf.mul_table
    A, B = np.ogrid[:gf.N, :gf.N]
    ca, cb = conjugation_tables(gf, params)
    assert ca.shape == cb.shape == (gf.N + 1, gf.N, gf.N)
    for k in range(gf.N + 1):
        m = m_power(gf, params, k)
        assert (ca[k] == add[mul[m[0][0], A], mul[m[0][1], B]]).all()
        assert (cb[k] == add[mul[m[1][0], A], mul[m[1][1], B]]).all()


@pytest.mark.parametrize("p,n", FIELDS_TO_64)
def test_equiv_classes_match_scalar_walk(p, n):
    gf, params = cached_params(p, n)
    assert equiv_classes(gf, params) == scalar_equiv_classes(gf, params)


def test_conjugation_tables_are_cached_and_read_only():
    gf, params = cached_params(2, 2)
    ca, cb = conjugation_tables(gf, params)
    assert conjugation_tables(gf, params)[0] is ca
    for t in (ca, cb):
        with pytest.raises(ValueError, match="read-only"):
            t[0, 0, 0] = 1


def test_conjugation_tables_reject_m_of_wrong_order():
    # diag(2, 3) over GF(5) has unit determinant, but 2 has order 4, not 6
    gf = make_field(5, 1)
    with pytest.raises(InvariantViolation, match="not the identity"):
        conjugation_tables(gf, SymplecticParams(2, 0, 3, 0))


@pytest.mark.parametrize("p,n", PRIME_POWERS)
def test_unit_determinant(p, n):
    gf, m = cached_params(p, n)
    assert gf.sub(gf.mul(m.alpha, m.gamma), gf.mul(m.beta, m.beta)) == 1
    assert gf.add(m.alpha, m.gamma) == gf.sub(0, m.c)


# ---------------------------------------------------------------
# phase function
# ---------------------------------------------------------------

def test_phase_f_at_zero():
    # one integer table per field, in quarter turns for p = 2 and powers of omega_p else
    for p, n in PRIME_POWERS:
        gf, params = cached_params(p, n)
        f = _f_table(gf, params)
        assert f.shape == (gf.N, gf.N) and f.dtype.kind == "i"
        assert f[0, 0] == 0 and 0 <= f.min() and f.max() < (4 if p == 2 else p)


def test_phase_f_qutrit_integral():
    f = cached_top(3, 1).f_table
    assert f.dtype.kind == "i" and set(f.ravel().tolist()) <= {0, 1, 2}


def cocycle_holds(gf, m_image, f):
    """f(0, 0) = 0 and, for every label l and each basis label m in
    {(g_i, 0), (0, g_i)}, f(l + m) = f(l) + f(m) + (q/p) [Tr(b_Ml a_Mm) -
    Tr(b_l a_m)] mod q, in f's unit (q = 4 for p = 2, else p): the phase law
    of W(l + m) T, with W(l) W(m) = omega_p^Tr(b_l a_m) W(l + m).  The basis
    labels generate GF(N)^2, so the identity pins f.  m_image is M's (a', b')."""
    p, add, mul, tr = gf.p, gf.add_table, gf.mul_table, gf.trace_table
    q, (ca, cb) = (4 if p == 2 else p), m_image
    A, B = np.ogrid[:gf.N, :gf.N]
    ok = f[0, 0] == 0
    for ma, mb in [(g, 0) for g in gf.basis] + [(0, g) for g in gf.basis]:
        twist = tr[mul[cb, ca[ma, mb]]] - tr[mul[B, ma]]
        ok &= ((f[add[A, ma], add[B, mb]] - f - f[ma, mb] - q // p * twist) % q == 0).all()
    return bool(ok)


@pytest.mark.parametrize("p,n", PINNED_PARAMS)
def test_phase_f_satisfies_the_cocycle_identity(p, n):
    # exact on every field N <= 256, also above N = 64 where no dense T is
    # built to check f; one unit more at a single label breaks it
    gf = make_field(p, n)
    c, al, be, ga = PINNED_PARAMS[p, n]
    params = SymplecticParams(al, be, ga, c)
    # row 1 of the uncached tables: the cache would keep 2(N+1)N^2 bytes per field
    m_image = tuple(t[1] for t in conjugation_tables.__wrapped__(gf, params))
    f = _f_table(gf, params)
    assert cocycle_holds(gf, m_image, f)
    for label in ((1, 0), (0, 1), (gf.N - 1, gf.N - 1)):
        wrong = f.copy()
        wrong[label] = (wrong[label] + 1) % (4 if p == 2 else p)
        assert not cocycle_holds(gf, m_image, wrong)


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
            out += w ** (2 * (i == 0) + (j == 0)) * pauli_matrix(gf, i, j)
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
            out += coef * pauli_matrix(gf, i, j)
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
    assert top.report == rep
    assert rep.unitarity_residual < TOL
    assert rep.conjugation_residual < TOL
    assert rep.order_up_to_phase == top.gf.N + 1
    assert rep.mub_ok
    assert rep.lambda_flatness < TOL
    assert rep.all_ok


@pytest.mark.parametrize("p,n", [(5, 2), (3, 3), (2, 5), (7, 2), (2, 6)])
def test_verification_suite_beyond_sixteen(p, n):
    rep = verify_T(cached_top(p, n))
    assert rep.all_ok
    for residual in (rep.unitarity_residual, rep.conjugation_residual,
                     rep.mub_max_deviation, rep.lambda_flatness):
        assert residual < TOL


def test_build_rejects_fields_above_cap():
    with pytest.raises(ValueError, match="N <= 64"):
        build_T(make_field(67, 1), SymplecticParams(0, 0, 0, 0))


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
    # row 0 of the tables is the identity; one more step of M after row N gives it back
    gf, params = cached_params(2, 2)
    ca, cb = conjugation_tables(gf, params)
    A, B = np.ogrid[:gf.N, :gf.N]
    assert (ca[0] == A).all() and (cb[0] == B).all()
    assert (ca[1][ca[gf.N], cb[gf.N]] == A).all() and (cb[1][ca[gf.N], cb[gf.N]] == B).all()


def test_conjugate_label_qubit():
    ca, cb = conjugation_tables(*cached_params(2, 1))
    assert (ca[1, 1, 0], cb[1, 1, 0]) == (0, 1)


def test_conjugate_label_qutrit_half_period_negates():
    gf, params = cached_params(3, 1)
    ca, cb = conjugation_tables(gf, params)
    for a in gf.elements():
        for b in gf.elements():
            assert (ca[2, a, b], cb[2, a, b]) == (gf.sub(0, a), gf.sub(0, b))


def test_conjugate_label_negative_power_inverts():
    # row N+1-k undoes row k
    gf, params = cached_params(2, 3)
    ca, cb = conjugation_tables(gf, params)
    back = gf.N + 1 - 3
    A, B = np.ogrid[:gf.N, :gf.N]
    assert (ca[back][ca[3], cb[3]] == A).all() and (cb[back][ca[3], cb[3]] == B).all()


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

def pair_term(gf, x, c):
    """p = 2: the sum over i > j of x_i x_j g_i g_j c in GF(N), elementwise
    over the element array x, with x_i the digits of x."""
    digits = gf.coeff_table[x]
    out = np.zeros(x.shape, dtype=np.intp)
    for i in range(gf.n):
        for j in range(i):
            term = gf.mul(gf.mul(gf.basis[i], gf.basis[j]), c)
            out = gf.add_table[out, np.where(digits[..., i] & digits[..., j], term, 0)]
    return out


def explicit_phi_tables(gf, params):
    """phi_1 and phi_2 of the explicit coefficient formula, indexed [a, b]."""
    al, be, ga = params.alpha, params.beta, params.gamma
    add, mul, sub = gf.add_table, gf.mul_table, gf.sub_table
    two = gf.add(1, 1)
    t2 = gf.sub(two, gf.add(al, ga))  # 2 - alpha - gamma, nonzero
    dinv = gf.pow(gf.mul(t2, t2), -1)
    g1 = gf.sub(ga, 1)
    a1 = gf.sub(al, 1)
    be2 = gf.mul(be, be)
    # coefficients of a^2, ab, b^2 inside phi_1
    c_a2 = gf.mul(gf.mul(be, be2), g1)
    c_ab = gf.sub(0, gf.mul(g1, gf.add(gf.mul(a1, a1), gf.mul(be2, gf.sub(gf.add(al, al), 1)))))
    c_b2 = gf.mul(be, gf.add(gf.mul(gf.mul(al, ga), a1), g1))
    # coefficients inside phi_2
    d_sym = gf.sub(gf.add(al, ga), gf.mul(two, gf.mul(al, ga)))  # alpha+gamma-2*alpha*gamma
    A, B = np.ogrid[:gf.N, :gf.N]
    aa, bb, ab = mul[A, A], mul[B, B], mul[A, B]
    phi1 = mul[dinv, add[add[mul[c_a2, aa], mul[c_ab, ab]], mul[c_b2, bb]]]
    if gf.p == 2:
        t2inv = gf.pow(t2, -1)
        ta = mul[sub[mul[g1, A], mul[be, B]], t2inv]
        tb = mul[sub[mul[a1, B], mul[be, A]], t2inv]
        corr = add[pair_term(gf, ta, al), pair_term(gf, tb, ga)]
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
        u = gf.mul(params.beta, gf.pow(gf.add(params.alpha, params.gamma), -1))
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
    max |X_a Z_b T - w^f(a,b) T X_a' Z_b'| over all N^2 labels."""
    omega = np.exp(2j * np.pi / gf.p)
    worst = 0.0
    for a in gf.elements():
        for b in gf.elements():
            ap = gf.add(gf.mul(params.alpha, a), gf.mul(params.beta, b))
            bp = gf.add(gf.mul(params.beta, a), gf.mul(params.gamma, b))
            ph = phase_value(gf.p, int(f_table[a, b]))
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


# (2, 4) runs four blocks of 4 label rows, (13, 1) blocks of 7 and 6 rows
@pytest.mark.parametrize("p,n", [(3, 1), (2, 2), (2, 4), (13, 1)])
def test_conjugation_residual_covers_every_label(p, n):
    # one label's phase moved by one unit of f (a quarter turn for p = 2)
    # leaves that label off by the step times T's flat entries, 1/sqrt(N)
    top = cached_top(p, n)
    q = 4 if p == 2 else p
    step = abs(1 - np.exp(2j * np.pi / q)) / np.sqrt(top.gf.N)
    for a in top.gf.elements():
        for b in top.gf.elements():
            wrong = top.f_table.copy()
            wrong[a, b] = (wrong[a, b] + 1) % q
            residual = _conjugation_residual(top.gf, top.params, top.matrix, wrong)
            assert residual == pytest.approx(step, abs=1e-12)


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
    order, mub_dev = _walk_powers(T, gf.N if p == 2 else (gf.N - 1) // 2)
    assert order == gf.N + 1 and mub_dev < TOL
    assert np.abs(np.abs(lam) - 1.0 / gf.N).max() < TOL


# the message build_T raises for lam[1, 0] scaled by -1 and by 2 at N = 4:
# every failing check named with its value, and no passing one
FAILING_CANDIDATES = {
    -1: "unitarity residual 3.54e-01; conjugation residual 1.00e+00; "
        "order up to phase 0 (want 5); MUB deviation 3.75e-01",
    2: "unitarity residual 3.12e-01; conjugation residual 5.00e-01; "
       "order up to phase 0 (want 5); MUB deviation 7.93e-01; Lambda flatness 2.50e-01",
}


def test_build_rejects_a_failing_candidate(monkeypatch, capsys):
    real = toperator._coeffs_closure
    gf, params = cached_params(2, 2)
    for scale, failures in FAILING_CANDIDATES.items():
        def one_entry_scaled(gf, params, f_table):
            lam = real(gf, params, f_table)
            lam[1, 0] *= scale
            return lam

        monkeypatch.setattr(toperator, "_coeffs_closure", one_entry_scaled)
        with pytest.raises(InvariantViolation) as err:
            build_T(gf, params)
        assert str(err.value) == "T construction failed: " + failures
        assert cli.main(["verify", "--p", "2", "--n", "2"]) == 4
        assert capsys.readouterr().err == f"invariant failure: T construction failed: {failures}\n"


@pytest.mark.parametrize("p,n", [(2, 2), (3, 2)])
def test_verify_checks_its_T_once(monkeypatch, capsys, p, n):
    # verify reports the checks build_T ran, so the conjugation relation, the
    # costliest of them, is evaluated once per run
    real, calls = toperator._conjugation_residual, []

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(toperator, "_conjugation_residual", counted)
    assert cli.main(["verify", "--p", str(p), "--n", str(n)]) == 0
    assert json.loads(capsys.readouterr().out)["result"]["all_ok"] is True
    assert len(calls) == 1


def reference_order(T, tol):
    """The order search as its own walk: smallest k <= 2(N+1) with T^k
    scalar, else 0."""
    N = T.shape[0]
    P = np.eye(N, dtype=np.complex128)
    for k in range(1, 2 * (N + 1) + 1):
        P = P @ T
        scal = np.trace(P) / N
        if np.abs(P - scal * np.eye(N)).max() < tol and abs(scal) > 0.5:
            return k
    return 0


def reference_mub_deviation(T, max_power):
    N = T.shape[0]
    dev, P = 0.0, np.eye(N, dtype=np.complex128)
    for _ in range(max_power):
        P = P @ T
        dev = max(dev, float(np.abs(np.abs(P) ** 2 - 1.0 / N).max()))
    return dev


@pytest.mark.parametrize("p,n", [(2, 2), (3, 1), (5, 1)])
def test_walk_powers_matches_separate_walks(p, n):
    # the built T (order N+1, beyond every MUB power), a permutation of
    # order 2 (found before the MUB powers end), a non-unitary one whose
    # powers past its order still grow, matrices with no scalar power, and
    # one of order 7 > N+1, found only past the first N+1 powers, with a
    # scaled copy whose seventh power is too small to count
    T = cached_top(p, n).matrix
    N = T.shape[0]
    swap = np.eye(N, dtype=np.complex128)[[1, 0, *range(2, N)]]
    drift = np.diag(np.exp(1j * np.sqrt(2) * np.arange(N)))
    seventh = np.diag(np.exp(2j * np.pi * np.arange(N) / 7))
    for M in (T, swap, 1.1 * swap, drift, T @ drift, seventh, 0.5 * seventh):
        for max_power in range(N + 1):
            assert _walk_powers(M, max_power) == (reference_order(M, TOL),
                                                   reference_mub_deviation(M, max_power))


@pytest.mark.parametrize("p,n", [(2, 1), (2, 4), (251, 1), (2, 8)])
def test_parameter_search_makes_no_scalar_field_calls(monkeypatch, p, n):
    # the search reads the field tables; the bounds-checked scalar methods,
    # counted as the benchmark's fields.scalar_calls counts them, stay unused
    gf, calls = make_field(p, n), []
    for name in ("add", "sub", "mul", "pow", "trace"):
        def counted(*args, _real=getattr(type(gf), name), _name=name):
            calls.append(_name)
            return _real(*args)

        monkeypatch.setattr(type(gf), name, counted)
    m = choose_M(gf, find_char_poly(gf))
    assert (m.c, m.alpha, m.beta, m.gamma) == PINNED_PARAMS[p, n]
    assert calls == []
