"""Dense Weyl-Heisenberg operators, the reference the T tests compare against.

X_a shifts the standard basis by the field element a, Z_b multiplies |j>
by the additive character omega_p^Tr(b*j).  Basis states are indexed by
the integer encoding of GF(N) elements, zero first.
"""

import numpy as np


def phase_value(p: int, f: int) -> complex:
    """Complex value of w^f in the field's unit of f: w = omega_p for odd p,
    and w = omega_2^(1/2) = +i, a quarter turn, for p = 2."""
    q = 4 if p == 2 else p
    return np.exp(2j * np.pi * f / q)


def pauli_matrix(gf, a: int, b: int) -> np.ndarray:
    """Dense N x N complex matrix of X_a Z_b."""
    m = np.zeros((gf.N, gf.N), dtype=np.complex128)
    omega = np.exp(2j * np.pi / gf.p)
    for j in range(gf.N):
        m[gf.add(a, j), j] = omega ** gf.trace(gf.mul(b, j))
    return m
