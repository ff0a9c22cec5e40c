import hashlib

import numpy as np
import pytest

from quditqkd.exceptions import ConfigError
from quditqkd.fields import MAX_FIELD_SIZE, _is_prime, make_field

SMALL_FIELDS = [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (2, 4)]
# every realizable field with N <= 64, used for the exhaustive axiom sweep
AXIOM_FIELDS = SMALL_FIELDS + [(2, 5), (5, 2), (3, 3), (7, 2), (2, 6), (61, 1)]
# every field with N <= 256: the fields whose arithmetic is tabulated (70 of them)
TABLE_FIELDS = [(p, n) for p in range(2, 257) if _is_prime(p) for n in range(1, 9) if p**n <= 256]
TABLES = ("add_table", "mul_table", "sub_table", "trace_table", "coeff_table")


# ---------------------------------------------------------------
# oracles: scalar polynomial arithmetic on digit lists, independent of
# the field's tables
# ---------------------------------------------------------------

def digits(gf, a):
    """Base-p digits of a, constant coefficient first."""
    return [a // g % gf.p for g in gf.basis]


def encode(gf, coeffs):
    return sum(c % gf.p * g for c, g in zip(coeffs, gf.basis))


def oracle_add(gf, da, db, sign=1):
    return encode(gf, [x + sign * y for x, y in zip(da, db)])


def oracle_mul(gf, da, db):
    """Digit vectors da and db multiplied as polynomials, then reduced by
    long division by the monic modulus, highest power first."""
    n, m = gf.n, gf.modulus
    prod = [0] * (2 * n - 1)
    for i, x in enumerate(da):
        for j, y in enumerate(db):
            prod[i + j] += x * y
    for k in range(2 * n - 2, n - 1, -1):
        c = prod[k] % gf.p
        for i, mi in enumerate(m):  # subtract c * x^(k-n) * modulus
            prod[k - n + i] -= c * mi
    return encode(gf, prod[:n])


def oracle_trace(gf, mul, a):
    """a + a^p + ... + a^(p^(n-1)) with the oracle product table *mul*; the
    sum must lie in the prime subfield."""
    acc, t = 0, a
    for _ in range(gf.n):
        acc = oracle_add(gf, digits(gf, acc), digits(gf, t))
        frob, base, e = 1, t, gf.p
        while e:
            if e & 1:
                frob = mul[frob][base]
            base, e = mul[base][base], e >> 1
        t = frob
    assert acc < gf.p, "trace left the prime subfield"
    return acc


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


def test_fields_above_256_have_a_modulus_but_no_arithmetic():
    gf = make_field(2, 9)
    assert gf.modulus == (1, 1, 0, 0, 0, 0, 0, 0, 0, 1)  # x^9 + x + 1
    with pytest.raises(ConfigError):
        gf.mul(1, 1)
    for name in TABLES:
        with pytest.raises(ConfigError):
            getattr(gf, name)
    assert make_field(2, 16).N == 65536


def test_every_modulus_is_pinned():
    # sha256 over "p n modulus" of every prime power up to the construction
    # cap, recorded when the moduli were found by Rabin's irreducibility test
    fields = [(p, n) for p in range(2, MAX_FIELD_SIZE + 1) if _is_prime(p)
              for n in range(1, 17) if p**n <= MAX_FIELD_SIZE]
    text = "".join(f"{p} {n} {make_field(p, n).modulus}\n" for p, n in fields)
    assert len(fields) == 6635
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "42467386406fb7e51be0019ee4eb4d971096190a110e8bb143959aef4a8a9e20")


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
        scaled = gf.mul_table[lam]  # the integer lam < p is the prime-subfield scalar lam
        assert (tr[scaled] == (lam * tr) % p).all()


@pytest.mark.parametrize("p,n", TABLE_FIELDS)
def test_lookup_tables_match_scalar_arithmetic(p, n):
    """Every table, and the scalar methods that read them, against the
    polynomial oracles above."""
    gf = make_field(p, n)
    els = gf.elements()
    ds = [digits(gf, a) for a in els]
    mul = [[oracle_mul(gf, da, db) for db in ds] for da in ds]
    trace = [oracle_trace(gf, mul, a) for a in els]
    assert gf.coeff_table.tolist() == ds
    assert gf.add_table.tolist() == [[oracle_add(gf, da, db) for db in ds] for da in ds]
    assert gf.sub_table.tolist() == [[oracle_add(gf, da, db, -1) for db in ds] for da in ds]
    assert gf.mul_table.tolist() == mul
    assert gf.trace_table.tolist() == trace
    assert [gf.trace(a) for a in els] == trace
    assert [gf.neg(a) for a in els] == [oracle_add(gf, ds[0], da, -1) for da in ds]
    smallest_root = {}
    for b in reversed(els):
        smallest_root[mul[b][b]] = b
    assert [gf.sqrt(a) for a in els] == [smallest_root.get(a) for a in els]


# sha256 (first 16 hex digits) of the add, mul, sub, trace and coeff tables as
# int64 bytes, recorded from the scalar polynomial implementation the tables
# replaced
TABLE_DIGESTS = {
    (2, 1): "b684e83690bf3676", (2, 2): "b616330dc194e0ed", (2, 3): "8cec43cde7042a6e",
    (2, 4): "6a295cedfbb02583", (2, 5): "97dbf93dced8527b", (2, 6): "369769adddc00334",
    (2, 7): "60be056c653ba19f", (2, 8): "a802e4cf2fc9974e", (3, 1): "84941f02748a3ebf",
    (3, 2): "f0c82c93149f0c13", (3, 3): "c06fd85614a7fd2a", (3, 4): "5147f35da949459d",
    (3, 5): "40e154635b237800", (5, 1): "c9113fda42de1e19", (5, 2): "515f3d98c06caea2",
    (5, 3): "b88e4105464f3569", (7, 1): "274941962f862eac", (7, 2): "454e1ab40c48a76c",
    (11, 1): "031ab7306b979fa8", (11, 2): "13a8fd3f04257480", (13, 1): "dbe07af4c861ed95",
    (13, 2): "84fde2cd113a7c4d", (17, 1): "97dc38629b04411d", (19, 1): "1bd1e17837200da2",
    (23, 1): "4cfb99c367ebecb5", (29, 1): "9125faa68f0f3761", (31, 1): "30839ed725e92b72",
    (37, 1): "ec6708d41852ea48", (41, 1): "fd936900ba827538", (43, 1): "8fa8a6db9c09a439",
    (47, 1): "5f8b67e1c347a792", (53, 1): "2a5d7eeede9eac76", (59, 1): "a35989fae201bf14",
    (61, 1): "b95dfbe68edd8007", (67, 1): "08f182206518b461", (71, 1): "906932b140b2253b",
    (73, 1): "17b04758dc710f4e", (79, 1): "f6eb9aaf92301a3b", (83, 1): "ee92853631edfa5a",
    (89, 1): "1c57916c38367829", (97, 1): "c6c55e021a411be9", (101, 1): "03ac35106062bdc3",
    (103, 1): "e0493084a3637d5a", (107, 1): "5c63d3594bd0c973", (109, 1): "f1661af14d186acd",
    (113, 1): "1841e4a9eef298b7", (127, 1): "f2a6152fb6061b1b", (131, 1): "f4b42f7b405065ed",
    (137, 1): "1d5fdd69b3a41c99", (139, 1): "5d28648a512a4122", (149, 1): "544ffff308e931fe",
    (151, 1): "8c39d61fd8baf96b", (157, 1): "f37d7bb135f4623d", (163, 1): "7dc120236ee58b83",
    (167, 1): "913a5ba3415c2e07", (173, 1): "bf88e79d9d4ed7a1", (179, 1): "bb55c07e9d5b3204",
    (181, 1): "a7584d324c129dc6", (191, 1): "e5f6029b6c73f0bb", (193, 1): "a7e0a0a5cc652379",
    (197, 1): "5960b5f85363d9d2", (199, 1): "1b7727b460721676", (211, 1): "1e3f61fabb497a45",
    (223, 1): "8e2f212904e6b6a8", (227, 1): "c25d0ae08234502a", (229, 1): "03e8d604d7b1284f",
    (233, 1): "387259eda19a3dcf", (239, 1): "2746cffb17797159", (241, 1): "0182ac6cf8ad6219",
    (251, 1): "ff8b2633bd49065a",
}


def test_table_digests_are_pinned():
    assert list(TABLE_DIGESTS) == TABLE_FIELDS
    for p, n in TABLE_FIELDS:
        gf = make_field(p, n)
        h = hashlib.sha256()
        for name in TABLES:
            h.update(np.ascontiguousarray(getattr(gf, name), dtype=np.int64).tobytes())
        assert h.hexdigest()[:16] == TABLE_DIGESTS[p, n], (p, n)


@pytest.mark.parametrize("p,n", [(2, 1), (3, 2), (2, 8), (251, 1)])
def test_tables_are_cached_read_only_and_typed(p, n):
    gf = make_field(p, n)
    for name in TABLES:
        table = getattr(gf, name)
        assert getattr(gf, name) is table  # built once, not per access
        with pytest.raises(ValueError):
            table.flat[0] = 0
    for name in ("add_table", "mul_table", "sub_table"):
        assert getattr(gf, name).dtype == np.uint8
    # signed: T's phases subtract traces, which would wrap in an unsigned type
    for name in ("trace_table", "coeff_table"):
        assert np.issubdtype(getattr(gf, name).dtype, np.signedinteger)


def test_trace_frobenius_invariant():
    for p, n in SMALL_FIELDS:
        gf = make_field(p, n)
        for a in gf.elements():
            assert gf.trace(gf.pow(a, p)) == gf.trace(a)

