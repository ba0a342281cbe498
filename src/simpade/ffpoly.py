"""Exact arithmetic in GF(p) and dense univariate polynomials over GF(p).

Field elements are plain ints; every operation reduces them into [0, p).
Polynomials are stored as tuples of integers in [0, p), ascending degree,
with no trailing zeros; the zero polynomial has an empty coefficient tuple
and degree NEG_INF.  All values are immutable, all operations are pure.

A single Poly product uses schoolbook convolution for small operands and
Kronecker substitution (packing coefficients into one big integer, so
CPython's subquadratic integer multiplication does the work) for large ones.
The schoolbook cutoff applies only there: polynomial-matrix products pack
every entry (see polymat.mat_mul).

Coefficient tuples are built from lists or slices, not generators.  tuple()
of a generator allocates for a guessed length and resizes, so a freed tuple
enters the free list of another length than the one it came from, and
CPython's tuple free lists (up to 2000 tuples per length below 20) then grow
call after call: on an n = 8, d = 128 duality solve, resident memory rose by
about 0.15 MB per repeated call until the next full garbage collection.
"""

from __future__ import annotations

import numpy as np

NEG_INF = float("-inf")

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n):
    """Deterministic Miller-Rabin, valid for all word-sized integers."""
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class PrimeField:
    """The prime field GF(p) for a prime p < 2^64.

    Coefficients are packed as unsigned 64-bit words for Kronecker
    multiplication, so larger moduli are rejected.
    """

    __slots__ = ("p",)

    def __init__(self, p):
        if not isinstance(p, int) or not is_prime(p):
            raise ValueError(f"modulus {p!r} is not prime")
        if p >= 2**64:
            raise ValueError(f"modulus {p} is not below 2^64")
        self.p = p

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("PrimeField", self.p))

    def __repr__(self):
        return f"GF({self.p})"

    def inv(self, a):
        a %= self.p
        if a == 0:
            raise ZeroDivisionError("inverse of zero in " + repr(self))
        return pow(a, self.p - 2, self.p)

    def x(self):
        return Poly(self, (0, 1))

    def one(self):
        return Poly(self, (1,))

    def zero(self):
        return Poly(self, ())


def _check_same_field(f1, f2):
    if f1 != f2:
        raise ValueError(f"mismatched fields {f1!r} and {f2!r}")


# ---------------------------------------------------------------------------
# coefficient-tuple kernels

_SCHOOLBOOK_CUTOFF = 24


def _mul_coeffs(a, b, p):
    if not a or not b:
        return ()
    la, lb = len(a), len(b)
    if min(la, lb) <= _SCHOOLBOOK_CUTOFF:
        out = [0] * (la + lb - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    out[i + j] += ai * bj
        return tuple([c % p for c in out])
    return _kronecker_mul(a, b, p)


def _kronecker_mul(a, b, p):
    bound = min(len(a), len(b)) * (p - 1) * (p - 1)
    slot = (bound.bit_length() + 7) // 8
    prod = _pack(a, slot) * _pack(b, slot)
    return _unpack(prod, slot, len(a) + len(b) - 1, p)


def _pack(coeffs, slot):
    arr = np.asarray(coeffs, dtype=np.uint64)
    buf = np.zeros((len(coeffs), slot), dtype=np.uint8)
    for k in range(min(slot, 8)):
        buf[:, k] = (arr >> np.uint64(8 * k)).astype(np.uint8)
    return int.from_bytes(buf.tobytes(), "little")


def _unpack(value, slot, n, p):
    data = value.to_bytes(slot * n, "little")
    # each slot value fits int64 dotted against 256^k mod p when p is small
    if slot * 255 * (p - 1) < 2**62:
        arr = np.frombuffer(data, dtype=np.uint8).reshape(n, slot).astype(np.int64)
        pw = np.array([pow(256, k, p) for k in range(slot)], dtype=np.int64)
        return tuple(((arr @ pw) % p).tolist())
    return tuple([int.from_bytes(data[i * slot:(i + 1) * slot], "little") % p
                  for i in range(n)])


def _divrem_coeffs(a, b, p):
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    la, lb = len(a), len(b)
    if la < lb:
        return (), a
    m = la - lb  # quotient degree
    if m < 64 or lb < 64:
        rem = list(a)
        q = [0] * (m + 1)
        inv_lead = pow(b[-1], p - 2, p)
        for k in range(m, -1, -1):
            c = rem[k + lb - 1] % p
            if c:
                c = c * inv_lead % p
                q[k] = c
                for j in range(lb):
                    rem[k + j] = (rem[k + j] - c * b[j]) % p
        return _strip(tuple(q)), _strip(tuple([c % p for c in rem[:lb - 1]]))
    # fast division via Newton inversion of the reversed divisor
    rb = tuple(reversed(b))
    inv = _inv_series(rb, m + 1, p)
    ra = tuple(reversed(a))
    qrev = _mul_coeffs(ra[:m + 1], inv, p)[:m + 1]
    qrev = qrev + (0,) * (m + 1 - len(qrev))
    q = _strip(tuple(reversed(qrev)))
    qb = _mul_coeffs(q, b, p)
    rem = tuple([(ai - (qb[i] if i < len(qb) else 0)) % p
                 for i, ai in enumerate(a[:lb - 1])])
    return q, _strip(rem)


def _inv_series(f, k, p):
    """Inverse of f as a power series mod x^k; f must have nonzero constant."""
    g = (pow(f[0], p - 2, p),)
    prec = 1
    while prec < k:
        prec = min(2 * prec, k)
        fg = _mul_coeffs(f[:prec], g, p)[:prec]
        two_minus = tuple([(-c) % p for c in fg])
        two_minus = ((two_minus[0] + 2) % p,) + two_minus[1:]
        g = _mul_coeffs(g, two_minus, p)[:prec]
    return _strip(g[:k])


def _strip(coeffs):
    n = len(coeffs)
    while n and coeffs[n - 1] == 0:
        n -= 1
    return coeffs[:n]


# ---------------------------------------------------------------------------


class Poly:
    """Dense univariate polynomial over GF(p), canonical ascending coefficients."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs=()):
        p = field.p
        self.field = field
        self.coeffs = _strip(tuple([c % p for c in coeffs]))

    @classmethod
    def _raw(cls, field, coeffs):
        # internal: coeffs already canonical
        self = object.__new__(cls)
        self.field = field
        self.coeffs = coeffs
        return self

    @property
    def degree(self):
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    def is_zero(self):
        return not self.coeffs

    def coefficient(self, i):
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return 0

    def leading_coefficient(self):
        return self.coeffs[-1] if self.coeffs else 0

    def __add__(self, other):
        other = self._coerce(other)
        p = self.field.p
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = (out[i] + c) % p
        return Poly._raw(self.field, _strip(tuple(out)))

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __neg__(self):
        p = self.field.p
        return Poly._raw(self.field, tuple([-c % p for c in self.coeffs]))

    def __mul__(self, other):
        if isinstance(other, int):
            p = self.field.p
            c = other % p
            if c == 0:
                return Poly._raw(self.field, ())
            return Poly._raw(self.field,
                             tuple([c * v % p for v in self.coeffs]))
        other = self._coerce(other)
        return Poly._raw(self.field,
                         _mul_coeffs(self.coeffs, other.coeffs, self.field.p))

    __rmul__ = __mul__

    def __divmod__(self, other):
        other = self._coerce(other)
        q, r = _divrem_coeffs(self.coeffs, other.coeffs, self.field.p)
        return Poly._raw(self.field, q), Poly._raw(self.field, r)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def shifted(self, k):
        """Multiply by x^k (k >= 0)."""
        if not self.coeffs or k == 0:
            return self
        return Poly._raw(self.field, (0,) * k + self.coeffs)

    def truncated(self, k):
        """Remainder modulo x^k."""
        return Poly._raw(self.field, _strip(self.coeffs[:max(k, 0)]))

    def __call__(self, alpha):
        p = self.field.p
        alpha %= p
        acc = 0
        for c in reversed(self.coeffs):
            acc = (acc * alpha + c) % p
        return acc

    def _coerce(self, other):
        if isinstance(other, Poly):
            _check_same_field(self.field, other.field)
            return other
        if isinstance(other, int):
            return Poly(self.field, (other,))
        raise TypeError(f"cannot coerce {other!r} to a polynomial")

    def __eq__(self, other):
        return (isinstance(other, Poly) and other.field == self.field
                and other.coeffs == self.coeffs)

    def __hash__(self):
        return hash((self.field.p, self.coeffs))

    def to_list(self):
        return list(self.coeffs)

    def __repr__(self):
        if not self.coeffs:
            return "0"
        terms = []
        for i in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[i]
            if not c:
                continue
            if i == 0:
                terms.append(str(c))
            elif i == 1:
                terms.append("x" if c == 1 else f"{c}*x")
            else:
                terms.append(f"x^{i}" if c == 1 else f"{c}*x^{i}")
        return " + ".join(terms)


def poly_mul(a, b):
    """Product of two polynomials over the same field."""
    if not isinstance(a, Poly) or not isinstance(b, Poly):
        raise TypeError("poly_mul expects Poly operands")
    _check_same_field(a.field, b.field)
    return a * b


def poly_divrem(a, b):
    """Quotient and remainder with deg r < deg b; b must be nonzero."""
    _check_same_field(a.field, b.field)
    if b.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    return divmod(a, b)


def poly_substitute_shift(a, alpha):
    """Return a(x + alpha); involutive with -alpha."""
    p = a.field.p
    alpha %= p
    if alpha == 0 or a.is_zero():
        return a
    if p < 2**31:
        # Horner with numpy rows: r <- x*r + alpha*r + c
        r = np.zeros(1, dtype=np.int64)
        for c in reversed(a.coeffs):
            nr = np.zeros(len(r) + 1, dtype=np.int64)
            nr[1:] = r
            nr[:-1] = (nr[:-1] + alpha * r) % p
            nr[0] = (nr[0] + c) % p
            r = nr
        return Poly(a.field, (int(v) for v in r))
    r = [0]
    for c in reversed(a.coeffs):
        nr = [0] + r
        for i in range(len(r)):
            nr[i] = (nr[i] + alpha * r[i]) % p
        nr[0] = (nr[0] + c) % p
        r = nr
    return Poly(a.field, r)
