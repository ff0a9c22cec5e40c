"""Dense Weyl-Heisenberg operators, the reference the T tests compare against.

X_a shifts the standard basis by the field element a, Z_b multiplies |j>
by the additive character omega_p^Tr(b*j).  Basis states are indexed by
the integer encoding of GF(N) elements, zero first.
"""

import numpy as np


def phase_value(p: int, num: int, den: int) -> complex:
    """Complex value of omega_p^(num/den) with the +i branch for p = 2."""
    return np.exp(2j * np.pi * num / (p * den))


def pauli_matrix(gf, a: int, b: int) -> np.ndarray:
    """Dense N x N complex matrix of X_a Z_b."""
    m = np.zeros((gf.N, gf.N), dtype=np.complex128)
    omega = np.exp(2j * np.pi / gf.p)
    for j in range(gf.N):
        m[gf.add(a, j), j] = omega ** gf.trace(gf.mul(b, j))
    return m
