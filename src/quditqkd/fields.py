"""Exact arithmetic in the finite field GF(p^n).

Field elements are represented as plain integers in ``[0, p^n)`` whose
base-p digits are the coefficients of the residue polynomial, least
significant digit = constant term.  With the power basis {1, x, ...,
x^(n-1)} the digit vector of an element *is* its coordinate vector, so
two elements are equal iff their integers are equal.

The reducing modulus is always the lexicographically smallest monic
irreducible polynomial of the requested degree (candidates ordered by
the base-p integer encoding of their non-leading coefficients), which
makes every field construction deterministic.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Optional

import numpy as np

from .exceptions import ConfigError

# Hard size cap: keeps exhaustive verification and table building cheap.
MAX_FIELD_SIZE = 1 << 16

# Full add/mul tables are only materialized up to this order, as uint8:
# every element of such a field is below 256.
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


# ----------------------------------------------------------------------
# Polynomial helpers over GF(p).  Polynomials are lists of ints
# (coefficients, lowest degree first) with no trailing zeros.
# ----------------------------------------------------------------------

def _ptrim(f: list[int]) -> list[int]:
    while f and f[-1] == 0:
        f.pop()
    return f


def _padd(f: list[int], g: list[int], p: int) -> list[int]:
    m = max(len(f), len(g))
    out = [0] * m
    for i, c in enumerate(f):
        out[i] = c
    for i, c in enumerate(g):
        out[i] = (out[i] + c) % p
    return _ptrim(out)


def _pmul(f: list[int], g: list[int], p: int) -> list[int]:
    if not f or not g:
        return []
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a == 0:
            continue
        for j, b in enumerate(g):
            out[i + j] = (out[i + j] + a * b) % p
    return _ptrim(out)


def _pmod(f: list[int], m: list[int], p: int) -> list[int]:
    f = list(f)
    inv_lead = pow(m[-1], p - 2, p)
    while len(f) >= len(m):
        coef = (f[-1] * inv_lead) % p
        shift = len(f) - len(m)
        if coef:
            for i, c in enumerate(m):
                f[shift + i] = (f[shift + i] - coef * c) % p
        f.pop()
        _ptrim(f)
        if not f:
            break
    return f


def _pgcd(f: list[int], g: list[int], p: int) -> list[int]:
    while g:
        f, g = g, _pmod(f, g, p)
    return f


def _ppowmod(base: list[int], e: int, m: list[int], p: int) -> list[int]:
    result = [1]
    base = _pmod(base, m, p)
    while e:
        if e & 1:
            result = _pmod(_pmul(result, base, p), m, p)
        base = _pmod(_pmul(base, base, p), m, p)
        e >>= 1
    return result


def _is_irreducible(m: list[int], p: int) -> bool:
    """Rabin irreducibility test for a monic polynomial over GF(p)."""
    n = len(m) - 1
    if n < 1:
        return False
    if n == 1:
        return True
    x = [0, 1]
    # x^(p^n) == x (mod m)
    if _ppowmod(x, p**n, m, p) != x:
        return False
    # gcd(x^(p^(n/q)) - x, m) == 1 for every prime divisor q of n
    for q in _prime_divisors(n):
        h = _padd(_ppowmod(x, p ** (n // q), m, p), [(-c) % p for c in x], p)
        g = _pgcd(list(m), h, p)
        if len(g) != 1:
            return False
    return True


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
        if not _is_prime(p):
            raise ConfigError(f"p={p} is not prime")
        if n <= 0:
            raise ConfigError(f"extension degree must be positive, got {n}")
        if p**n > MAX_FIELD_SIZE:
            raise ConfigError(f"field size {p}^{n} exceeds the desk-scale cap {MAX_FIELD_SIZE}")
        self.p = p
        self.n = n
        self.N = p**n
        self.modulus = self._smallest_irreducible()
        # power basis; with n digits base p, g_i = x^(i-1) has integer p^(i-1)
        self.basis = tuple(p**i for i in range(n))
        # x^k mod modulus for k = n .. 2n-2, as element ints (reduction folds)
        self._xpow = [self._poly_to_int(_pmod([0] * k + [1], list(self.modulus), p)) for k in range(n, 2 * n - 1)]
        self._add_table: Optional[np.ndarray] = None
        self._mul_table: Optional[np.ndarray] = None
        self._sub_table: Optional[np.ndarray] = None
        self._trace_table: Optional[np.ndarray] = None

    # -- encoding -------------------------------------------------------

    def to_coeffs(self, a: int) -> tuple[int, ...]:
        """Base-p digits of *a*, constant coefficient first."""
        out = []
        for _ in range(self.n):
            out.append(a % self.p)
            a //= self.p
        return tuple(out)

    def from_coeffs(self, coeffs) -> int:
        v = 0
        for c in reversed(list(coeffs)):
            v = v * self.p + (c % self.p)
        return v

    def _poly_to_int(self, f: list[int]) -> int:
        v = 0
        for c in reversed(f):
            v = v * self.p + c
        return v

    def elements(self) -> range:
        return range(self.N)

    def _check(self, *els: int) -> None:
        for a in els:
            if not 0 <= a < self.N:
                raise ValueError(f"{a} is not an element of GF({self.p}^{self.n})")

    # -- arithmetic -----------------------------------------------------

    def add(self, a: int, b: int) -> int:
        self._check(a, b)
        if self.p == 2:
            return a ^ b
        ca, cb = self.to_coeffs(a), self.to_coeffs(b)
        return self.from_coeffs((x + y) % self.p for x, y in zip(ca, cb))

    def neg(self, a: int) -> int:
        self._check(a)
        if self.p == 2:
            return a
        return self.from_coeffs((-c) % self.p for c in self.to_coeffs(a))

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        self._check(a, b)
        if self._mul_table is not None:
            return int(self._mul_table[a, b])
        return self._mul_raw(a, b)

    def _mul_raw(self, a: int, b: int) -> int:
        p, n = self.p, self.n
        ca, cb = self.to_coeffs(a), self.to_coeffs(b)
        prod = [0] * (2 * n - 1)
        for i, x in enumerate(ca):
            if x == 0:
                continue
            for j, y in enumerate(cb):
                prod[i + j] = (prod[i + j] + x * y) % p
        acc = self.from_coeffs(prod[:n])
        for k in range(n, 2 * n - 1):
            c = prod[k]
            if c:
                acc = self.add(acc, self.scalar_mul(c, self._xpow[k - n]))
        return acc

    def scalar_mul(self, c: int, a: int) -> int:
        """Multiply element *a* by the prime-subfield scalar *c*."""
        if self.p == 2:
            return a if c % 2 else 0
        return self.from_coeffs((c * x) % self.p for x in self.to_coeffs(a))

    def pow(self, a: int, e: int) -> int:
        self._check(a)
        if e < 0:
            return self.pow(self.inv(a), -e)
        r, base = 1, a
        while e:
            if e & 1:
                r = self.mul(r, base)
            base = self.mul(base, base)
            e >>= 1
        return r

    def inv(self, a: int) -> int:
        self._check(a)
        if a == 0:
            raise ZeroDivisionError("zero has no multiplicative inverse")
        return self.pow(a, self.N - 2)

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def trace(self, a: int) -> int:
        """Absolute trace a + a^p + ... + a^(p^(n-1)), as an int in [0, p)."""
        self._check(a)
        acc, t = 0, a
        for _ in range(self.n):
            acc = self.add(acc, t)
            t = self.pow(t, self.p)
        coeffs = self.to_coeffs(acc)
        if any(c for c in coeffs[1:]):
            raise AssertionError("trace left the prime subfield")
        return coeffs[0]

    def sqrt(self, a: int) -> Optional[int]:
        """A square root of *a*, or None if *a* is a non-residue.

        For p = 2 the root is unique; for p > 2 the returned root is the
        smaller of the two under the integer element order.
        """
        self._check(a)
        if a == 0:
            return 0
        if self.p == 2:
            return self.pow(a, 1 << (self.n - 1))
        if self.pow(a, (self.N - 1) // 2) != 1:
            return None
        for b in range(1, self.N):
            if self.mul(b, b) == a:
                return b
        return None  # unreachable for residues

    # -- tables (lazy; used by the numeric kernels) ----------------------

    @property
    def add_table(self) -> np.ndarray:
        if self._add_table is None:
            if self.N > _TABLE_MAX:
                raise ValueError(f"add_table not materialized for N={self.N} > {_TABLE_MAX}")
            digits = self.coeff_table
            self._add_table = (((digits[:, None] + digits[None, :]) % self.p) @ self.basis).astype(np.uint8)
        return self._add_table

    @property
    def mul_table(self) -> np.ndarray:
        if self._mul_table is None:
            if self.N > _TABLE_MAX:
                raise ValueError(f"mul_table not materialized for N={self.N} > {_TABLE_MAX}")
            t = np.empty((self.N, self.N), dtype=np.uint8)
            for a in range(self.N):
                for b in range(self.N):
                    t[a, b] = self._mul_raw(a, b)
            self._mul_table = t
        return self._mul_table

    @property
    def sub_table(self) -> np.ndarray:
        if self._sub_table is None:
            self._sub_table = self.add_table[:, [self.neg(a) for a in range(self.N)]]
        return self._sub_table

    @property
    def coeff_table(self) -> np.ndarray:
        """(N, n) base-p digits of every element, constant coefficient first."""
        return (np.arange(self.N)[:, None] // np.array(self.basis)) % self.p

    @property
    def trace_table(self) -> np.ndarray:
        """Tr(a) for every element a, from the linearity of the trace."""
        if self._trace_table is None:
            basis_tr = np.array([self.trace(g) for g in self.basis])
            self._trace_table = (self.coeff_table @ basis_tr) % self.p
        return self._trace_table

    # -- misc -------------------------------------------------------------

    def _smallest_irreducible(self) -> tuple[int, ...]:
        p, n = self.p, self.n
        for idx in range(p**n):
            low = []
            v = idx
            for _ in range(n):
                low.append(v % p)
                v //= p
            cand = low + [1]
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

