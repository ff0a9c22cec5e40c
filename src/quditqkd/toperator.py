"""The basis-cycling unitary T and its conjugation action on Pauli labels.

For every prime power N there is a unitary T, unique up to global phase,
whose conjugation maps X_a Z_b to a phase times X_a' Z_b' with (a', b')
given by a symmetric unit-determinant matrix M over GF(N) whose
characteristic polynomial has a root of multiplicative order N+1.  T
itself has order N+1 up to phase, and its powers applied to the standard
basis generate mutually unbiased bases.

Construction is verified before anything is returned: unitarity, the
conjugation relation for every label, and the order are all checked at
1e-10, and a T failing any of them is never handed out.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .exceptions import InvariantViolation
from .fields import GF, make_quadratic_extension
from .pauli import phase_value


@dataclass(frozen=True)
class SymplecticParams:
    """Entries of M = [[alpha, beta], [beta, gamma]] plus c = -(alpha+gamma)."""

    alpha: int
    beta: int
    gamma: int
    c: int


@dataclass
class VerificationReport:
    unitarity_residual: float
    conjugation_residual: float
    order_up_to_phase: int
    order_ok: bool
    mub_powers_checked: int
    mub_max_deviation: float
    mub_ok: bool
    lambda_flatness: float
    all_ok: bool
    notes: list[str] = field(default_factory=list)


@dataclass
class TOperator:
    gf: GF
    params: SymplecticParams
    matrix: np.ndarray
    coeffs: np.ndarray  # Lambda_ab, indexed [a, b]
    f_table: tuple[np.ndarray, np.ndarray]  # (num, den) of f, indexed [a, b]


@lru_cache(maxsize=None)
def _quadratic_extension(gf: GF):
    return make_quadratic_extension(gf)


def find_char_poly(gf: GF) -> int:
    """Smallest c for which y^2 + c*y + 1 is irreducible with a root of
    multiplicative order exactly N+1 in GF(N^2)."""
    ext, embed = _quadratic_extension(gf)
    for c in gf.elements():
        # irreducible over GF(N) <=> no root in GF(N)
        if any(gf.add(gf.add(gf.mul(y, y), gf.mul(c, y)), 1) == 0 for y in gf.elements()):
            continue
        xi = _root_in_extension(gf, ext, embed, c)
        if ext.mult_order(xi) == gf.N + 1:
            return c
    raise InvariantViolation(f"no order-{gf.N + 1} characteristic polynomial over GF({gf.N})")


def _root_in_extension(gf: GF, ext: GF, embed, c: int) -> int:
    ce = embed[c]
    one = embed[1]
    for z in ext.elements():
        if ext.add(ext.add(ext.mul(z, z), ext.mul(ce, z)), one) == 0:
            return z
    raise InvariantViolation("irreducible quadratic without root in the quadratic extension")


def choose_M(gf: GF, c: int) -> SymplecticParams:
    """Pick (alpha, beta, gamma) with alpha*gamma - beta^2 = 1 and
    alpha + gamma = -c, following the two solvable cases."""
    p = gf.p
    if p == 2 or p % 4 == 1:
        beta = gf.sqrt(gf.neg(1))
        if beta is None:
            raise InvariantViolation("sqrt(-1) missing in a p = 2 or p = 1 mod 4 field")
        alpha, gamma = 0, gf.neg(c)
    else:
        alpha = 1
        gamma = gf.neg(gf.add(c, 1))
        ext, embed = _quadratic_extension(gf)
        back = {v: k for k, v in enumerate(embed)}
        xi = _root_in_extension(gf, ext, embed, c)
        eta = ext.sqrt(xi)
        if eta is None:
            raise InvariantViolation("root of the characteristic polynomial has no square root")
        cands = []
        for e in (eta, ext.neg(eta)):
            bx = ext.sub(e, ext.inv(e))
            if bx in back:
                cands.append(back[bx])
        if not cands:
            raise InvariantViolation("beta = xi^(1/2) - xi^(-1/2) did not land in the base field")
        beta = min(cands)
    params = SymplecticParams(alpha, beta, gamma, c)
    lhs = gf.sub(gf.mul(alpha, gamma), gf.mul(beta, beta))
    if lhs != 1:
        raise InvariantViolation("alpha*gamma - beta^2 != 1 (construction bug)")
    return params


def m_power(gf: GF, params: SymplecticParams, k: int):
    """M^k as a 2x2 tuple over GF(N); k is reduced mod N+1."""
    k %= gf.N + 1
    m = ((1, 0), (0, 1))
    step = ((params.alpha, params.beta), (params.beta, params.gamma))
    for _ in range(k):
        m = _mat2_mul(gf, m, step)
    return m


def _mat2_mul(gf: GF, x, y):
    return tuple(
        tuple(gf.add(gf.mul(x[i][0], y[0][j]), gf.mul(x[i][1], y[1][j])) for j in range(2))
        for i in range(2)
    )


def conjugate_label(gf: GF, params: SymplecticParams, label: tuple[int, int], k: int) -> tuple[int, int]:
    """M^k applied to (a, b); the phase-free orbit map."""
    m = m_power(gf, params, k)
    a, b = label
    return (
        gf.add(gf.mul(m[0][0], a), gf.mul(m[0][1], b)),
        gf.add(gf.mul(m[1][0], a), gf.mul(m[1][1], b)),
    )


def equiv_classes(gf: GF, params: SymplecticParams) -> list[tuple[tuple[int, int], ...]]:
    """Orbits of GF(N)^2 under iteration of M, canonically sorted."""
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
                cur = conjugate_label(gf, params, cur, 1)
            seen |= orbit
            classes.append(tuple(sorted(orbit)))
    classes.sort(key=lambda cls: cls[0])
    return classes


def conjugation_tables(gf: GF, params: SymplecticParams) -> tuple[np.ndarray, np.ndarray]:
    """(N+1, N, N) lookup tables: label (a, b) conjugated by T^k maps to
    (conj_a[k, a, b], conj_b[k, a, b]).  Used by the protocol kernels."""
    N = gf.N
    addt, mult = gf.add_table, gf.mul_table
    ca = np.empty((N + 1, N, N), dtype=np.uint8)
    cb = np.empty((N + 1, N, N), dtype=np.uint8)
    ar = np.arange(N)
    for k in range(N + 1):
        m = m_power(gf, params, k)
        a_part0 = mult[ar, m[0][0]][:, None]
        b_part0 = mult[ar, m[0][1]][None, :]
        ca[k] = addt[a_part0, b_part0]
        a_part1 = mult[ar, m[1][0]][:, None]
        b_part1 = mult[ar, m[1][1]][None, :]
        cb[k] = addt[a_part1, b_part1]
    return ca, cb


# ----------------------------------------------------------------------
# The phase function f and the coefficients of T
# ----------------------------------------------------------------------

def _pair_correction(gf: GF, x: np.ndarray, coef: int) -> np.ndarray:
    """p = 2: sum over i > j of x_i x_j g_i g_j coef, elementwise over x."""
    add, mul = gf.add_table, gf.mul_table
    digits = gf.coeff_table[x]
    out = np.zeros(x.shape, dtype=np.intp)
    for i in range(gf.n):
        for j in range(i):
            term = mul[mul[gf.basis[i], gf.basis[j]], coef]
            out = add[out, np.where(digits[..., i] & digits[..., j], term, 0)]
    return out


def _f_table(gf: GF, params: SymplecticParams) -> tuple[np.ndarray, np.ndarray]:
    """(num, den) of phase_exponent_f for every label, as (N, N) arrays
    indexed [a, b]."""
    al, be, ga = params.alpha, params.beta, params.gamma
    add, mul, tr = gf.add_table, gf.mul_table, gf.trace_table
    p = gf.p
    A, B = np.ogrid[:gf.N, :gf.N]
    aa, bb = mul[A, A], mul[B, B]
    cross = mul[mul[A, B], mul[be, be]]
    if p != 2:
        half_arg = mul[be, add[mul[aa, al], mul[bb, ga]]]
        inv2 = pow(2, p - 2, p)
        num = (inv2 * tr[half_arg] + tr[cross]) % p
        return num, np.ones_like(num)
    # p = 2: per-coefficient half-integral terms plus the i > j correction
    digits = gf.coeff_table
    gj2 = [mul[g, g] for g in gf.basis]
    s_a = digits @ tr[mul[mul[al, be], gj2]]
    s_b = digits @ tr[mul[mul[be, ga], gj2]]
    s = s_a[:, None] + s_b[None, :]
    corr = add[_pair_correction(gf, A, al), _pair_correction(gf, B, ga)]
    num = s + 2 * tr[add[cross, mul[be, corr]]]
    even = num % 2 == 0
    return np.where(even, (num // 2) % 2, num % 4), np.where(even, 1, 2)


def phase_exponent_f(gf: GF, params: SymplecticParams, a: int, b: int) -> tuple[int, int]:
    """Exponent of omega_p in the conjugation relation
    X_a Z_b T = omega_p^f(a,b) T X_a' Z_b', as (num, den) with den in {1, 2}.

    For odd p the half is absorbed by 2^-1 in GF(p) and the exponent is
    integral.  For p = 2 the half-integral diagonal terms are evaluated
    per basis coefficient with omega_2^(1/2) = +i.
    """
    gf._check(a, b)
    num, den = _f_table(gf, params)
    return int(num[a, b]), int(den[a, b])


def _phase_values(p: int, num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """phase_value(p, num, den) elementwise, looked up from the scalar values."""
    table = np.array([[phase_value(p, k, d) for k in range(2 * p)] for d in (1, 2)])
    return table[den - 1, num]


def _coeffs_closure(gf: GF, params: SymplecticParams, f_table: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """Lambda_ab propagated from Lambda_00 = 1/N through the defining
    relation, hopping each (i, j) to (0, 0) via (M - I)^(-1)."""
    N, p = gf.N, gf.p
    add, mul, sub, tr = gf.add_table, gf.mul_table, gf.sub_table, gf.trace_table
    al, be, ga = params.alpha, params.beta, params.gamma
    det = gf.sub(gf.scalar_mul(2, 1), gf.add(al, ga))  # det(M - I) = 2-alpha-gamma
    dinv = gf.inv(det)
    i00, i01 = gf.mul(dinv, gf.sub(ga, 1)), gf.neg(gf.mul(dinv, be))
    i11 = gf.mul(dinv, gf.sub(al, 1))
    g1 = gf.sub(ga, 1)
    I, J = np.ogrid[:N, :N]
    a = add[mul[i00, I], mul[i01, J]]
    b = add[mul[i01, I], mul[i11, J]]
    ap = add[mul[a, al], mul[b, be]]
    inner = sub[sub[J, mul[a, be]], mul[b, g1]]
    extra = (tr[mul[ap, inner]] - tr[mul[b, I]]) % p
    # the phase omega_p^(f(a, b) + extra), in quarter turns for p = 2
    # (omega_2^(1/2) = +i) and in powers of omega_p for odd p
    num, den = f_table[0][a, b], f_table[1][a, b]
    if p == 2:
        values = np.array([1j**k / N for k in range(4)])
        lam = values[(num * (2 // den) + 2 * extra) % 4]
    else:
        omega = np.exp(2j * np.pi / p)
        values = np.array([omega**e / N for e in range(p)])
        lam = values[(num + extra) % p]
    lam[0, 0] = 1.0 / N
    return lam


def _char_table(gf: GF) -> np.ndarray:
    """chi[b, v] = omega_p^Tr(b v), looked up from the scalar omega ** k."""
    omega = np.exp(2j * np.pi / gf.p)
    powers = np.array([omega**k for k in range(gf.p)])
    return powers[gf.trace_table[gf.mul_table]]


def _assemble(gf: GF, lam: np.ndarray) -> np.ndarray:
    N = gf.N
    zchar = _char_table(gf)
    T = np.zeros((N, N), dtype=np.complex128)
    addt = gf.add_table
    cols = np.arange(N)
    for a in gf.elements():
        rows = addt[a, cols]
        for b in gf.elements():
            T[rows, cols] += lam[a, b] * zchar[b]
    return T


def _conjugation_residual(gf: GF, params: SymplecticParams, T: np.ndarray, f_table) -> float:
    """max over all N^2 labels of |X_a Z_b T - omega^f(a,b) T X_a' Z_b'|, one
    row of labels (fixed a, all b) at a time.  Row u of X_a Z_b T is
    chi[b, u-a] T[u-a, :]; column v of T X_a' Z_b' is chi[b', v] T[:, a'+v]."""
    add, mul, sub = gf.add_table, gf.mul_table, gf.sub_table
    al, be, ga = params.alpha, params.beta, params.gamma
    chi = _char_table(gf)
    ph = _phase_values(gf.p, *f_table)
    A, B = np.ogrid[:gf.N, :gf.N]
    a_img = add[mul[al, A], mul[be, B]]
    b_img = add[mul[be, A], mul[ga, B]]
    worst = 0.0
    for a in gf.elements():
        src = sub[:, a]
        left = chi[:, src][:, :, None] * T[src, :][None, :, :]
        right = T[:, add[a_img[a]]].transpose(1, 0, 2) * chi[b_img[a]][:, None, :]
        resid = np.abs(left - ph[a][:, None, None] * right).max()
        worst = max(worst, float(resid))
    return worst


def _scalar_order(T: np.ndarray, tol: float) -> int:
    """Smallest k >= 1 with T^k a scalar multiple of the identity; 0 if none
    found within 2(N+1) powers."""
    N = T.shape[0]
    P = np.eye(N, dtype=np.complex128)
    for k in range(1, 2 * (N + 1) + 1):
        P = P @ T
        scal = np.trace(P) / N
        if np.abs(P - scal * np.eye(N)).max() < tol and abs(scal) > 0.5:
            return k
    return 0


def build_T(gf: GF, params: SymplecticParams, tol: float = 1e-10) -> TOperator:
    """Construct T from the closure coefficients; the result must pass
    unitarity, the conjugation relation for every label, and the order
    check before it is returned."""
    if gf.N > 32:
        raise ValueError("T construction is supported for N <= 32")
    f_table = _f_table(gf, params)
    lam = _coeffs_closure(gf, params, f_table)
    T = _assemble(gf, lam)
    uni = float(np.abs(T.conj().T @ T - np.eye(gf.N)).max())
    if uni > tol:
        raise InvariantViolation(f"T construction failed: unitarity residual {uni:.2e}")
    conj = _conjugation_residual(gf, params, T, f_table)
    if conj > tol:
        raise InvariantViolation(f"T construction failed: conjugation residual {conj:.2e}")
    order = _scalar_order(T, tol)
    if order != gf.N + 1:
        raise InvariantViolation(
            f"T construction failed: order up to phase is {order}, want {gf.N + 1}"
        )
    return TOperator(gf, params, T, lam, f_table)


def make_t_operator(gf: GF) -> TOperator:
    """End-to-end helper: characteristic polynomial, M, then T."""
    return build_T(gf, choose_M(gf, find_char_poly(gf)))


def verify_T(top: TOperator, tol: float = 1e-10) -> VerificationReport:
    """Re-run every invariant on a built T and report residuals.

    The mutually-unbiased-bases check covers powers 1..N for p = 2 and
    1..(N-1)/2 for p > 2 (a T^m with all squared entries 1/N makes the
    bases of T^i and T^(i+m) unbiased).  For p > 2 the power (N+1)/2
    maps the standard basis to itself, so it closes the cycle rather
    than adding a basis.
    """
    gf, T = top.gf, top.matrix
    N = gf.N
    uni = float(np.abs(T.conj().T @ T - np.eye(N)).max())
    conj = _conjugation_residual(gf, top.params, T, top.f_table)
    order = _scalar_order(T, tol)
    notes = []

    max_power = N if gf.p == 2 else (N - 1) // 2
    mub_dev = 0.0
    P = np.eye(N, dtype=np.complex128)
    for _ in range(max_power):
        P = P @ T
        mub_dev = max(mub_dev, float(np.abs(np.abs(P) ** 2 - 1.0 / N).max()))
    if gf.p != 2:
        Q = np.linalg.matrix_power(T, (N + 1) // 2)
        perm_resid = float(np.abs(np.sort(np.abs(Q), axis=0)[:-1, :]).max())
        notes.append(f"T^((N+1)/2) permutes the standard basis (residual {perm_resid:.2e})")
        if perm_resid > tol:
            notes.append("WARNING: expected standard-basis permutation at power (N+1)/2")

    flat = float(np.abs(np.abs(top.coeffs) - 1.0 / N).max())
    rep = VerificationReport(
        unitarity_residual=uni,
        conjugation_residual=conj,
        order_up_to_phase=order,
        order_ok=order == N + 1,
        mub_powers_checked=max_power,
        mub_max_deviation=mub_dev,
        mub_ok=mub_dev < tol,
        lambda_flatness=flat,
        all_ok=False,
        notes=notes,
    )
    rep.all_ok = uni < tol and conj < tol and rep.order_ok and rep.mub_ok and flat < tol
    return rep
