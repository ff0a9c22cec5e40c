import numpy as np
import pytest

from quditqkd.fields import make_field
from weyl_oracle import pauli_matrix

MATRIX_FIELDS = [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (2, 4)]


def test_x_matrix_is_sigma_x():
    gf = make_field(2, 1)
    assert np.allclose(pauli_matrix(gf, 1, 0), [[0, 1], [1, 0]])


def test_z_matrix_is_sigma_z():
    gf = make_field(2, 1)
    assert np.allclose(pauli_matrix(gf, 0, 1), np.diag([1.0, -1.0]))


def test_z_matrix_qutrit():
    gf = make_field(3, 1)
    w = np.exp(2j * np.pi / 3)
    assert np.allclose(pauli_matrix(gf, 0, 1), np.diag([1, w, w**2]))


def test_compose_x_then_z():
    gf = make_field(2, 1)
    assert np.allclose(pauli_matrix(gf, 1, 0) @ pauli_matrix(gf, 0, 1), pauli_matrix(gf, 1, 1))


def test_compose_z_then_x_qutrit():
    gf = make_field(3, 1)
    w = np.exp(2j * np.pi / 3)
    assert np.allclose(pauli_matrix(gf, 0, 1) @ pauli_matrix(gf, 1, 0), w * pauli_matrix(gf, 1, 1))


def assert_weyl_product_rule(gf, labels):
    """X_a Z_b . X_c Z_d = omega_p^Tr(b c) X_(a+c) Z_(b+d) for each (a, b, c, d)."""
    omega = np.exp(2j * np.pi / gf.p)
    mats = {(a, b): pauli_matrix(gf, a, b) for a in gf.elements() for b in gf.elements()}
    for a, b, c, d in labels:
        want = omega ** gf.trace(gf.mul(b, c)) * mats[gf.add(a, c), gf.add(b, d)]
        assert np.abs(mats[a, b] @ mats[c, d] - want).max() < 1e-12


@pytest.mark.parametrize("p,n", [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3)])
def test_compose_matches_matrix_product_exhaustive(p, n):
    gf = make_field(p, n)
    els = list(gf.elements())
    assert_weyl_product_rule(gf, ((a, b, c, d) for a in els for b in els for c in els for d in els))


@pytest.mark.parametrize("p,n", [(3, 2), (2, 4)])
def test_compose_matches_matrix_product_sampled(p, n):
    gf = make_field(p, n)
    rng = np.random.default_rng(5)
    assert_weyl_product_rule(gf, (tuple(int(x) for x in rng.integers(0, gf.N, 4)) for _ in range(100)))


def test_x_and_z_additivity():
    gf = make_field(3, 2)
    for a in gf.elements():
        for b in gf.elements():
            s = gf.add(a, b)
            for x, y, xy in (((a, 0), (b, 0), (s, 0)), ((0, a), (0, b), (0, s))):
                np.testing.assert_allclose(
                    pauli_matrix(gf, *x) @ pauli_matrix(gf, *y), pauli_matrix(gf, *xy), atol=1e-12
                )


@pytest.mark.parametrize("p,n", MATRIX_FIELDS)
def test_unitarity_and_trace(p, n):
    gf = make_field(p, n)
    eye = np.eye(gf.N)
    for a in gf.elements():
        for b in gf.elements():
            m = pauli_matrix(gf, a, b)
            assert np.abs(m.conj().T @ m - eye).max() < 1e-12
            tr = np.trace(m)
            if (a, b) == (0, 0):
                assert abs(tr - gf.N) < 1e-12
            else:
                assert abs(tr) < 1e-12


@pytest.mark.parametrize("p,n", [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3)])
def test_pauli_basis_spans(p, n):
    gf = make_field(p, n)
    vecs = np.array([pauli_matrix(gf, a, b).ravel() for a in gf.elements() for b in gf.elements()])
    gram = vecs @ vecs.conj().T
    assert np.abs(gram - gf.N * np.eye(gf.N**2)).max() < 1e-12
