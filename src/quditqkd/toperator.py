"""The basis-cycling unitary T and its conjugation action on Pauli labels.

For every prime power N there is a unitary T, unique up to global phase,
whose conjugation maps X_a Z_b to a phase times X_a' Z_b' with (a', b')
given by a symmetric unit-determinant matrix M over GF(N) whose
characteristic polynomial y^2 + c*y + 1 has a root of multiplicative
order N+1; c and M are found with GF(N) arithmetic alone.  T itself has
order N+1 up to phase, and its powers applied to the standard basis
generate mutually unbiased bases.

M's action on labels is one cached table, conjugation_tables, built by
iterating M and checked to have order N+1.  The label classes (the
orbits of M), T's conjugation check and the protocol's sift all read it.

The phase T's conjugation attaches to each label, f (_f_table), is one
integer table in one unit per field: powers of omega_p for odd p, quarter
turns (+i) for p = 2, read off a Z4 quadratic form on the digits.

The search for c and M reads the field tables directly.  T is assembled
in one gather from its coefficients and checked by verify_T before it is
returned: unitarity, the conjugation relation for every label (a block of
label rows per pass, each temporary at most _BLOCK = 2^14 entries, 256 KB,
so that it stays in L2 cache), the order and the unbiasedness of the bases
its powers give (one walk, its powers checked stacked in one batch), and
flat coefficients, all at TOL = 1e-10.  A T failing any check is never
handed out; `verify` reports the checks construction ran (TOperator.report).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache

import numpy as np

from .exceptions import ConfigError, InvariantViolation
from .fields import _TABLE_MAX, GF, _prime_divisors

# The tolerance of every residual check on T.
TOL = 1e-10
_BLOCK = 1 << 14  # entries per temporary of the conjugation check


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
    f_table: np.ndarray  # f, indexed [a, b]: quarter turns for p = 2, powers of omega_p else
    report: VerificationReport | None = None  # the checks build_T passed it on


def find_char_poly(gf: GF) -> int:
    """Smallest c for which a root of y^2 + c*y + 1 has multiplicative
    order exactly N+1, tested in R = GF(N)[y]/(y^2 + c*y + 1) as y^(N+1) = 1
    and y^((N+1)/q) != 1 for every prime q dividing N+1.  Only irreducible
    polynomials can pass: if irreducible, R is GF(N^2) and y is a root;
    with distinct roots r, 1/r in GF(N), y^(N+1) maps to (r^2, r^-2) != 1
    in GF(N) x GF(N); with a double root r = +-1, y = r + e with e^2 = 0,
    and y^(N+1) = r^(N+1) + (N+1) r^N e keeps its e term, since N+1 is
    1 mod p.
    """
    N = gf.N
    if N > _TABLE_MAX:
        raise ConfigError(f"T parameters are searched for N <= {_TABLE_MAX}, got N={N}")
    for c in gf.elements():
        if _y_power(gf, c, N + 1) == (1, 0) and all(
            _y_power(gf, c, (N + 1) // q) != (1, 0) for q in _prime_divisors(N + 1)
        ):
            return c
    raise InvariantViolation(f"no order-{N + 1} characteristic polynomial over GF({N})")


def _y_power(gf: GF, c: int, e: int) -> tuple[int, int]:
    """y^e in GF(N)[y]/(y^2 + c*y + 1) as (u, v), standing for u + v*y.  The
    operands are c and table entries, so the tables are read unchecked."""
    add, sub, mul = gf.add_table.item, gf.sub_table.item, gf.mul_table.item

    def times(x, z):  # (u + v y)(s + t y), reduced with y^2 = -c y - 1
        vt = mul(x[1], z[1])
        cross = add(mul(x[0], z[1]), mul(x[1], z[0]))
        return sub(mul(x[0], z[0]), vt), sub(cross, mul(c, vt))

    result, base = (1, 0), (0, 1)
    while e:
        if e & 1:
            result = times(result, base)
        base = times(base, base)
        e >>= 1
    return result


def choose_M(gf: GF, c: int) -> SymplecticParams:
    """Pick (alpha, beta, gamma) with alpha*gamma - beta^2 = 1 and
    alpha + gamma = -c, following the two solvable cases: beta^2 = -1
    with alpha = 0, or alpha = 1 with beta^2 = -c - 2; beta is the smallest root."""
    if not 0 <= c < gf.N:
        raise ValueError(f"{c} is not an element of {gf!r}")
    sub, mul = gf.sub_table.item, gf.mul_table.item
    if gf.p == 2 or gf.p % 4 == 1:
        alpha, gamma, target = 0, sub(0, c), sub(0, 1)
    else:
        alpha, gamma = 1, sub(sub(0, c), 1)
        target = sub(gamma, 1)  # alpha*gamma - 1 = -c - 2
    roots = np.flatnonzero(gf.mul_table.diagonal() == target)
    if not roots.size:
        raise InvariantViolation(f"beta^2 = {target} has no root in {gf!r}")
    beta = int(roots[0])
    params = SymplecticParams(alpha, beta, gamma, c)
    if sub(mul(alpha, gamma), mul(beta, beta)) != 1:
        raise InvariantViolation("alpha*gamma - beta^2 != 1 (construction bug)")
    return params


@cache
def conjugation_tables(gf: GF, params: SymplecticParams) -> tuple[np.ndarray, np.ndarray]:
    """Read-only (N+1, N, N) tables of M^k acting on labels: (a, b) conjugated
    by T^k is (ca[k, a, b], cb[k, a, b]).  Row 1 is M, read off the field
    tables, and row k is M applied to row k-1.  M must have order N+1: one
    more step after row N has to give back every label."""
    N = gf.N
    add, mul = gf.add_table, gf.mul_table
    tables = np.empty((2, N + 1, N, N), dtype=np.uint8)
    ca, cb = tables
    A, B = np.ogrid[:N, :N]
    ca[0], cb[0] = A, B
    ca[1] = add[mul[params.alpha, A], mul[params.beta, B]]
    cb[1] = add[mul[params.beta, A], mul[params.gamma, B]]
    for k in range(2, N + 1):
        ca[k], cb[k] = ca[1][ca[k - 1], cb[k - 1]], cb[1][ca[k - 1], cb[k - 1]]
    if not ((ca[1][ca[N], cb[N]] == A).all() and (cb[1][ca[N], cb[N]] == B).all()):
        raise InvariantViolation(f"M^{N + 1} is not the identity on GF({N})^2")
    tables.flags.writeable = False
    return tables[0], tables[1]


def equiv_classes(gf: GF, params: SymplecticParams) -> list[tuple[tuple[int, int], ...]]:
    """Orbits of GF(N)^2 under iteration of M, canonically sorted: column
    (a, b) of the conjugation tables is the orbit of (a, b), and labels with
    the same smallest code a*N + b in their column share an orbit."""
    N = gf.N
    ca, cb = conjugation_tables(gf, params)
    least = np.arange(N * N)
    for k in range(1, N + 1):
        np.minimum(least, ca[k].ravel().astype(np.intp) * N + cb[k].ravel(), out=least)
    order = np.argsort(least, kind="stable")
    groups = np.split(order, np.flatnonzero(np.diff(least[order])) + 1)
    return [tuple(divmod(code, N) for code in g.tolist()) for g in groups]


# ----------------------------------------------------------------------
# The phase function f and the coefficients of T
# ----------------------------------------------------------------------

def _f_table(gf: GF, params: SymplecticParams) -> np.ndarray:
    """Exponent f of the conjugation relation X_a Z_b T = w^f(a,b) T X_a' Z_b'
    for every label, an (N, N) integer array indexed [a, b] in one unit per
    field: w = omega_p, f in [0, p), for odd p, and w = omega_2^(1/2) = +i,
    a quarter turn, f in [0, 4), for p = 2.

    For odd p the half is absorbed by 2^-1 in GF(p).  For p = 2 the
    half-integral term Tr(c x^2)/2 is the Z4 lift d G_c d^T of the quadratic
    form on the digits d of x, with G_c[i, j] = Tr(c g_i g_j), over the integers.
    """
    al, be, ga = params.alpha, params.beta, params.gamma
    add, mul, tr = gf.add_table, gf.mul_table, gf.trace_table
    p = gf.p
    A, B = np.ogrid[:gf.N, :gf.N]
    cross = tr[mul[mul[A, B], mul[be, be]]]
    if p != 2:
        half_arg = mul[be, add[mul[mul[A, A], al], mul[mul[B, B], ga]]]
        return (pow(2, p - 2, p) * tr[half_arg] + cross) % p
    digits, g = gf.coeff_table, np.array(gf.basis)

    def lift(c):  # d G_c d^T for every element
        return np.einsum("xi,ij,xj->x", digits, tr[mul[c, mul[g[:, None], g]]], digits)

    return (lift(mul[al, be])[:, None] + lift(mul[be, ga])[None, :] + 2 * cross) % 4


def _coeffs_closure(gf: GF, params: SymplecticParams, f_table: np.ndarray) -> np.ndarray:
    """Lambda_ab propagated from Lambda_00 = 1/N through the defining
    relation, hopping each (i, j) to (0, 0) via (M - I)^(-1)."""
    N, p = gf.N, gf.p
    add, mul, sub, tr = gf.add_table, gf.mul_table, gf.sub_table, gf.trace_table
    al, be, ga = params.alpha, params.beta, params.gamma
    det = sub[add[1, 1], add[al, ga]]  # det(M - I) = 2-alpha-gamma
    dinv = np.flatnonzero(mul[det] == 1)[0]
    g1 = sub[ga, 1]
    i00, i01, i11 = mul[dinv, g1], sub[0, mul[dinv, be]], mul[dinv, sub[al, 1]]
    I, J = np.ogrid[:N, :N]
    a = add[mul[i00, I], mul[i01, J]]
    b = add[mul[i01, I], mul[i11, J]]
    ap = add[mul[a, al], mul[b, be]]
    inner = sub[sub[J, mul[a, be]], mul[b, g1]]
    extra = (tr[mul[ap, inner]] - tr[mul[b, I]]) % p
    # the phase w^f(a, b) omega_p^extra in f's unit w: quarter turns for
    # p = 2 (omega_2 = w^2), powers of omega_p for odd p
    if p == 2:
        values = np.array([1j**k / N for k in range(4)])
    else:
        omega = np.exp(2j * np.pi / p)
        values = np.array([omega**e / N for e in range(p)])
    q = len(values)
    lam = values[(f_table[a, b] + q // p * extra) % q]
    lam[0, 0] = 1.0 / N
    return lam


def _char_table(gf: GF) -> np.ndarray:
    """chi[b, v] = omega_p^Tr(b v), looked up from the scalar omega ** k."""
    omega = np.exp(2j * np.pi / gf.p)
    powers = np.array([omega**k for k in range(gf.p)])
    return powers[gf.trace_table[gf.mul_table]]


def _assemble(gf: GF, lam: np.ndarray) -> np.ndarray:
    """T = sum of lam[a, b] X_a Z_b.  Column v of X_a Z_b is chi[b, v] in
    row a + v, so T[a + v, v] is the sum over b of lam[a, b] chi[b, v];
    a -> a + v is one-to-one, so each entry is written once."""
    T = np.empty((gf.N, gf.N), dtype=np.complex128)
    T[gf.add_table, np.arange(gf.N)] = np.add.reduce(lam[:, :, None] * _char_table(gf)[None], axis=1)
    return T


def _conjugation_residual(gf: GF, params: SymplecticParams, T: np.ndarray, f_table) -> float:
    """max over all N^2 labels of |X_a Z_b T - w^f(a,b) T X_a' Z_b'|, a
    block of label rows (fixed a, all b) per pass.  Row u of X_a Z_b T is
    chi[b, u-a] T[u-a, :]; column v of T X_a' Z_b' is chi[b', v] T[:, a'+v]."""
    N, add, sub = gf.N, gf.add_table, gf.sub_table
    a_img, b_img = (t[1] for t in conjugation_tables(gf, params))
    chi = _char_table(gf)
    # w^k for every value k of f, in f's unit (w = +i for p = 2), looked up per label
    q = 4 if gf.p == 2 else gf.p
    ph = np.array([np.exp(2j * np.pi * k / q) for k in range(q)])[f_table]
    rows = max(1, _BLOCK // N**3)  # one at N >= 26
    worst = 0.0
    for start in range(0, N, rows):
        a = slice(start, start + rows)
        src = sub[:, a].T  # [a, u] = u - a
        left = chi[:, src].transpose(1, 0, 2)[..., None] * T[src][:, None]
        right = T[:, add[a_img[a]]].transpose(1, 2, 0, 3) * chi[b_img[a]][:, :, None, :]
        worst = max(worst, float(np.abs(left - ph[a][:, :, None, None] * right).max()))
    return worst


def _walk_powers(T: np.ndarray, max_power: int) -> tuple[int, float]:
    """(order, MUB deviation) from one walk over T, T^2, ...  The order is
    the smallest k with T^k a scalar multiple of the identity, 0 if none
    within 2(N+1) powers; the deviation is the largest ||T^k|^2 - 1/N| over
    powers 1..max_power.  Both are checked on the stacked powers in a batch:
    1..max(N+1, max_power), and up to 2(N+1) only if none of those is scalar."""
    N = T.shape[0]
    walk, order = [np.eye(N, dtype=np.complex128)], 0
    for count in (max(N + 1, max_power), 2 * (N + 1)):
        while len(walk) <= count:
            walk.append(walk[-1] @ T)
        P = np.stack(walk[1:])
        scal = np.trace(P, axis1=1, axis2=2) / N
        hit = (np.abs(P - scal[:, None, None] * np.eye(N)).max(axis=(1, 2)) < TOL) & (np.abs(scal) > 0.5)
        if hit[: 2 * (N + 1)].any():
            order = int(hit.argmax()) + 1
            break
    return order, float(np.abs(np.abs(P[:max_power]) ** 2 - 1.0 / N).max(initial=0.0))


def build_T(gf: GF, params: SymplecticParams) -> TOperator:
    """Construct T from the closure coefficients and check it with verify_T;
    T is returned, that report in its `report`, only if every check passes."""
    if gf.N > 64:
        raise ConfigError("T construction is supported for N <= 64")
    f_table = _f_table(gf, params)
    lam = _coeffs_closure(gf, params, f_table)
    top = TOperator(gf, params, _assemble(gf, lam), lam, f_table)
    rep = verify_T(top)
    if not rep.all_ok:
        raise InvariantViolation("T construction failed: " + "; ".join(_failed_checks(rep, gf.N)))
    top.report = rep
    return top


def _failed_checks(rep: VerificationReport, N: int) -> list[str]:
    """Each check the report fails at TOL, named with its value."""
    checks = (
        ("unitarity residual", rep.unitarity_residual < TOL, f"{rep.unitarity_residual:.2e}"),
        ("conjugation residual", rep.conjugation_residual < TOL, f"{rep.conjugation_residual:.2e}"),
        ("order up to phase", rep.order_ok, f"{rep.order_up_to_phase} (want {N + 1})"),
        ("MUB deviation", rep.mub_ok, f"{rep.mub_max_deviation:.2e}"),
        ("Lambda flatness", rep.lambda_flatness < TOL, f"{rep.lambda_flatness:.2e}"),
    )
    return [f"{name} {value}" for name, ok, value in checks if not ok]


def verify_T(top: TOperator) -> VerificationReport:
    """Run every invariant on a built T and report residuals.

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
    max_power = N if gf.p == 2 else (N - 1) // 2
    order, mub_dev = _walk_powers(T, max_power)
    notes = []
    if gf.p != 2:
        Q = np.linalg.matrix_power(T, (N + 1) // 2)
        perm_resid = float(np.abs(np.sort(np.abs(Q), axis=0)[:-1, :]).max())
        notes.append(f"T^((N+1)/2) permutes the standard basis (residual {perm_resid:.2e})")
        if perm_resid > TOL:
            notes.append("WARNING: expected standard-basis permutation at power (N+1)/2")

    rep = VerificationReport(
        unitarity_residual=uni,
        conjugation_residual=conj,
        order_up_to_phase=order,
        order_ok=order == N + 1,
        mub_powers_checked=max_power,
        mub_max_deviation=mub_dev,
        mub_ok=mub_dev < TOL,
        lambda_flatness=float(np.abs(np.abs(top.coeffs) - 1.0 / N).max()),
        all_ok=False,
        notes=notes,
    )
    rep.all_ok = not _failed_checks(rep, N)
    return rep
