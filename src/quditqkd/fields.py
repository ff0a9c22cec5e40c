"""Exact arithmetic in the finite field GF(p^n).

Field elements are represented as plain integers in ``[0, p^n)`` whose
base-p digits are the coefficients of the residue polynomial, least
significant digit = constant term.  With the power basis {1, x, ...,
x^(n-1)} the digit vector of an element *is* its coordinate vector, so
two elements are equal iff their integers are equal.  All arithmetic
reads NumPy tables, built once per field for N <= 256.

The reducing modulus is always the lexicographically smallest monic
irreducible polynomial of the requested degree (candidates ordered by
the base-p integer encoding of their non-leading coefficients), which
makes every field construction deterministic.  A candidate of degree n
is tested by trial division: it is irreducible when no monic polynomial
of degree 1..n//2 leaves remainder zero.  The remainder, _pmod, is the
only polynomial operation; the multiplication table's fold uses it too.
"""

from __future__ import annotations

from functools import cached_property, lru_cache

import numpy as np

from .exceptions import ConfigError

# Construction cap: fields above _TABLE_MAX are built only for their modulus.
MAX_FIELD_SIZE = 1 << 16

# The arithmetic tables exist only up to this order, as uint8 where they
# hold elements: every element of such a field is below 256.
_TABLE_MAX = 256


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p % 2 == 0:
        return p == 2
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


def _frozen(table: np.ndarray) -> np.ndarray:
    table.flags.writeable = False
    return table


# ----------------------------------------------------------------------
# Polynomial helpers over GF(p).  Polynomials are lists of ints
# (coefficients, lowest degree first) with no trailing zeros.
# ----------------------------------------------------------------------

def _pmod(f: list[int], m: list[int], p: int) -> list[int]:
    """f mod the monic m."""
    f = list(f)
    while len(f) >= len(m):
        coef, shift = f[-1], len(f) - len(m)
        for i, c in enumerate(m):
            f[shift + i] = (f[shift + i] - coef * c) % p
        while f and f[-1] == 0:
            f.pop()
    return f


def _monic(idx: int, k: int, p: int) -> list[int]:
    """The monic polynomial of degree k whose lower coefficients are the
    base-p digits of idx."""
    return [idx // p**i % p for i in range(k)] + [1]


def _is_irreducible(m: list[int], p: int) -> bool:
    """Trial division: a monic m of degree n >= 1 is irreducible when no
    monic polynomial of degree 1..n//2 divides it."""
    n = len(m) - 1
    return all(_pmod(m, _monic(idx, k, p), p) for k in range(1, n // 2 + 1) for idx in range(p**k))


def _prime_divisors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


class GF:
    """The finite field GF(p^n) with deterministic modulus and power basis.

    Arithmetic reads the field's tables, which exist for N <= 256: every
    element then fits a uint8.  Larger fields (up to ``MAX_FIELD_SIZE``)
    can be constructed for their modulus, but reading a table, and so any
    arithmetic, on them raises ConfigError.  The package reads the tables
    directly.  The bounds-checked scalar reads add, sub, mul, pow and trace
    remain for the tests and for perfbench, which counts their calls.

    Parameters
    ----------
    p : int
        Prime characteristic.
    n : int
        Extension degree; p^n must not exceed ``MAX_FIELD_SIZE``.

    Attributes
    ----------
    p, n, N : int
        Characteristic, degree, and field order N = p^n.
    modulus : tuple[int, ...]
        Monic reducing polynomial, coefficients lowest-degree first
        (length n+1, last entry 1).
    basis : tuple[int, ...]
        The power basis 1, x, ..., x^(n-1) as element integers.
    """

    def __init__(self, p: int, n: int) -> None:
        if n <= 0:
            raise ConfigError(f"extension degree must be positive, got {n}")
        # before the trial division, which grows with p; for p >= 2, p^n passes
        # the cap once n reaches its bit length, so no larger power is taken
        if p > MAX_FIELD_SIZE or p >= 2 and (n >= MAX_FIELD_SIZE.bit_length()
                                             or p**n > MAX_FIELD_SIZE):
            raise ConfigError(f"field size {p}^{n} exceeds the desk-scale cap {MAX_FIELD_SIZE}")
        if not _is_prime(p):
            raise ConfigError(f"p={p} is not prime")
        self.p = p
        self.n = n
        self.N = p**n
        self.modulus = self._smallest_irreducible()
        # power basis; with n digits base p, g_i = x^(i-1) has integer p^(i-1)
        self.basis = tuple(p**i for i in range(n))

    def elements(self) -> range:
        return range(self.N)

    def _check(self, *els: int) -> None:
        for a in els:
            if not 0 <= a < self.N:
                raise ValueError(f"{a} is not an element of GF({self.p}^{self.n})")

    # -- arithmetic: bounds-checked table reads ---------------------------

    def add(self, a: int, b: int) -> int:
        self._check(a, b)
        return int(self.add_table[a, b])

    def sub(self, a: int, b: int) -> int:
        self._check(a, b)
        return int(self.sub_table[a, b])

    def mul(self, a: int, b: int) -> int:
        self._check(a, b)
        return int(self.mul_table[a, b])

    def pow(self, a: int, e: int) -> int:
        self._check(a)
        if e < 0:  # a^(N-1) = 1 for a != 0 (Fermat), so e counts mod N - 1
            if a == 0:
                raise ZeroDivisionError("zero has no multiplicative inverse")
            e %= self.N - 1
        r, base = 1, a
        while e:
            if e & 1:
                r = self.mul(r, base)
            base = self.mul(base, base)
            e >>= 1
        return r

    def trace(self, a: int) -> int:
        """Absolute trace a + a^p + ... + a^(p^(n-1)), as an int in [0, p)."""
        self._check(a)
        return int(self.trace_table[a])

    # -- tables: built once per field, read-only --------------------------

    @cached_property
    def coeff_table(self) -> np.ndarray:
        """(N, n) base-p digits of every element, constant coefficient first."""
        if self.N > _TABLE_MAX:
            raise ConfigError(f"GF({self.N}) arithmetic is tabulated only for N <= {_TABLE_MAX}")
        return _frozen((np.arange(self.N)[:, None] // np.array(self.basis)) % self.p)

    @cached_property
    def add_table(self) -> np.ndarray:
        digits = self.coeff_table
        return _frozen((((digits[:, None] + digits[None, :]) % self.p) @ self.basis).astype(np.uint8))

    @cached_property
    def sub_table(self) -> np.ndarray:
        """a - b at [a, b]: row 0 is the negation of every element."""
        neg = (-self.coeff_table % self.p) @ self.basis
        return _frozen(self.add_table[:, neg])

    @cached_property
    def mul_table(self) -> np.ndarray:
        """The digit vectors multiplied as polynomials, with each x^k of
        degree k >= n folded back in by the digits of x^k mod the modulus."""
        p, n, digits = self.p, self.n, self.coeff_table
        prod = np.zeros((self.N, self.N, 2 * n - 1), dtype=np.intp)
        for i in range(n):
            prod[:, :, i : i + n] += digits[:, None, i, None] * digits[None, :, :]
        fold = np.zeros((n - 1, n), dtype=np.intp)  # row k - n: digits of x^k mod the modulus
        for k in range(n, 2 * n - 1):
            rem = _pmod([0] * k + [1], list(self.modulus), p)
            fold[k - n, : len(rem)] = rem
        coeffs = (prod[..., :n] + prod[..., n:] @ fold) % p
        return _frozen((coeffs @ self.basis).astype(np.uint8))

    @cached_property
    def trace_table(self) -> np.ndarray:
        """Tr(a) for every element a, as the trace of multiplication by a:
        the sum over j of digit j of a * x^j, mod p."""
        digits, mul = self.coeff_table, self.mul_table
        cols = [digits[mul[:, g], j] for j, g in enumerate(self.basis)]
        return _frozen(np.sum(cols, axis=0) % self.p)

    # -- misc -------------------------------------------------------------

    def _smallest_irreducible(self) -> tuple[int, ...]:
        p, n = self.p, self.n
        for idx in range(p**n):
            cand = _monic(idx, n, p)
            if _is_irreducible(cand, p):
                return tuple(cand)
        raise AssertionError("no irreducible polynomial found")  # cannot happen

    def __eq__(self, other) -> bool:
        return isinstance(other, GF) and (self.p, self.n) == (other.p, other.n)

    def __hash__(self) -> int:
        return hash((self.p, self.n))

    def __repr__(self) -> str:
        return f"GF({self.p}^{self.n})"


@lru_cache(maxsize=None)
def make_field(p: int, n: int) -> GF:
    """Construct (and cache) GF(p^n) with the deterministic modulus."""
    return GF(p, n)

