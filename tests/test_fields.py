import numpy as np
import pytest

from quditqkd.fields import GF, make_field

SMALL_FIELDS = [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (2, 4)]
# every realizable field with N <= 64, used for the exhaustive axiom sweep
AXIOM_FIELDS = SMALL_FIELDS + [(2, 5), (5, 2), (3, 3), (7, 2), (2, 6), (61, 1)]


# ---------------------------------------------------------------
# construction
# ---------------------------------------------------------------

def test_make_field_gf2():
    gf = make_field(2, 1)
    assert gf.N == 2
    assert gf.modulus == (0, 1)  # the polynomial x, not x+1
    assert gf.basis == (1,)


def test_make_field_gf4():
    gf = make_field(2, 2)
    assert gf.modulus == (1, 1, 1)  # x^2 + x + 1
    assert gf.basis == (1, 2)  # {1, omega}


def test_make_field_gf3():
    gf = make_field(3, 1)
    assert gf.N == 3
    assert gf.basis == (1,)


def test_make_field_rejects_bad_input():
    with pytest.raises(ValueError):
        make_field(4, 1)
    with pytest.raises(ValueError):
        make_field(2, 0)
    with pytest.raises(ValueError):
        make_field(2, 17)


def test_element_range_checked():
    gf = make_field(2, 2)
    with pytest.raises(ValueError):
        gf.mul(4, 1)


# ---------------------------------------------------------------
# arithmetic examples
# ---------------------------------------------------------------

def test_gf4_omega_squared():
    gf = make_field(2, 2)
    omega = 2
    assert gf.mul(omega, omega) == 3  # omega^2 = omega + 1


def test_mul_identity():
    for p, n in SMALL_FIELDS:
        gf = make_field(p, n)
        for a in gf.elements():
            assert gf.mul(1, a) == a


def test_gf3_two_squared():
    gf = make_field(3, 1)
    assert gf.mul(2, 2) == 1


def test_inverse_examples():
    assert make_field(3, 1).inv(2) == 2
    gf4 = make_field(2, 2)
    assert gf4.inv(1) == 1
    # brute-force: omega * (omega + 1) = 1
    omega = 2
    inv = next(b for b in gf4.elements() if gf4.mul(omega, b) == 1)
    assert gf4.inv(omega) == inv == 3


def test_inverse_of_zero_raises():
    with pytest.raises(ZeroDivisionError):
        make_field(2, 2).inv(0)


def test_trace_prime_field_is_identity():
    gf = make_field(5, 1)
    for a in gf.elements():
        assert gf.trace(a) == a


def test_trace_gf4():
    gf = make_field(2, 2)
    assert gf.trace(2) == 1  # omega + omega^2 = 1
    assert gf.trace(1) == 0  # 1 + 1 = 0


def test_sqrt_examples():
    assert make_field(2, 2).sqrt(1) == 1
    assert make_field(5, 1).sqrt(4) == 2  # tie-break picks 2 over 3
    assert make_field(3, 1).sqrt(2) is None  # squares mod 3 are {0, 1}


def test_sqrt_roundtrip():
    for p, n in SMALL_FIELDS:
        gf = make_field(p, n)
        for a in gf.elements():
            r = gf.sqrt(a)
            if p == 2:
                assert r is not None
            if r is not None:
                assert gf.mul(r, r) == a


# ---------------------------------------------------------------
# field axioms, exhaustive for N <= 64 via the cached tables
# ---------------------------------------------------------------

@pytest.mark.parametrize("p,n", AXIOM_FIELDS)
def test_field_axioms_exhaustive(p, n):
    gf = make_field(p, n)
    add, mul = np.asarray(gf.add_table, dtype=int), np.asarray(gf.mul_table, dtype=int)
    N = gf.N
    assert (add == add.T).all() and (mul == mul.T).all()
    assert (add[0] == np.arange(N)).all()
    assert (mul[1] == np.arange(N)).all()
    assert (mul[0] == 0).all()
    # associativity and distributivity on all triples
    assert (add[add, :] == add[:, add]).all()
    assert (mul[mul, :] == mul[:, mul]).all()
    assert (mul[add, :] == add[mul[:, None, :], mul[None, :, :]]).all()
    # additive and multiplicative inverses exist
    assert sorted(add[a].tolist().index(0) for a in range(N)) == list(range(N))
    for a in range(1, N):
        assert 1 in mul[a]


@pytest.mark.parametrize("p,n", AXIOM_FIELDS)
def test_trace_linearity_exhaustive(p, n):
    gf = make_field(p, n)
    tr = np.array([gf.trace(a) for a in gf.elements()])
    assert ((tr >= 0) & (tr < p)).all()
    add = np.asarray(gf.add_table, dtype=int)
    assert (tr[add] == (tr[:, None] + tr[None, :]) % p).all()
    for lam in range(p):
        scaled = np.array([gf.scalar_mul(lam, a) for a in gf.elements()])
        assert (tr[scaled] == (lam * tr) % p).all()


@pytest.mark.parametrize("p,n", AXIOM_FIELDS)
def test_lookup_tables_match_scalar_arithmetic(p, n):
    gf = make_field(p, n)
    els = list(gf.elements())
    assert gf.trace_table.tolist() == [gf.trace(a) for a in els]
    assert gf.coeff_table.tolist() == [list(gf.to_coeffs(a)) for a in els]
    assert gf.add_table.tolist() == [[gf.add(a, b) for b in els] for a in els]
    assert gf.sub_table is gf.sub_table  # cached, not rebuilt per access
    assert gf.sub_table.tolist() == [[gf.sub(a, b) for b in els] for a in els]


def test_trace_frobenius_invariant():
    for p, n in SMALL_FIELDS:
        gf = make_field(p, n)
        for a in gf.elements():
            assert gf.trace(gf.pow(a, p)) == gf.trace(a)

