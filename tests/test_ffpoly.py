import random

import pytest

from simpade import (NEG_INF, Poly, PrimeField, is_prime, poly_divrem,
                     poly_mul, poly_substitute_shift)
from simpade.ffpoly import _pack_many, _strip, _unpack_many

FIELDS = [2, 3, 97, 2**31 - 1]


def schoolbook(a, b, p):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def test_prime_check():
    assert is_prime(2) and is_prime(97) and is_prime(2**31 - 1)
    assert not is_prime(1) and not is_prime(91) and not is_prime(2**32)
    with pytest.raises(ValueError):
        PrimeField(91)
    assert PrimeField(2**64 - 59).p == 2**64 - 59   # largest prime below 2^64
    with pytest.raises(ValueError):
        PrimeField(2**89 - 1)                       # prime, but too wide


def test_field_element_basics():
    F = PrimeField(7)
    assert F.inv(3) == 5
    assert F.inv(10) == 5   # reduced mod p first
    assert F.inv(-1) == 6
    for zero in (0, 7, -14):
        with pytest.raises(ZeroDivisionError):
            F.inv(zero)


@pytest.mark.parametrize("p", FIELDS)
def test_field_axioms_randomized(p):
    F = PrimeField(p)
    rng = random.Random(p)
    for _ in range(1000):
        a = rng.randrange(1, p)
        assert a * F.inv(a) % p == 1
        assert F.inv(F.inv(a)) == a
    with pytest.raises(ZeroDivisionError):
        F.inv(0)


def test_gf2_square():
    F = PrimeField(2)
    a = Poly(F, [1, 1])  # x + 1
    assert (a * a).to_list() == [1, 0, 1]


def test_gf2_product_matches_schoolbook_oracle():
    # (x^3 + x) * (x^4 + x^2 + 1) = x^7 + x  over GF(2)
    F = PrimeField(2)
    a = Poly(F, [0, 1, 0, 1])
    b = Poly(F, [1, 0, 1, 0, 1])
    expected = schoolbook(a.coeffs, b.coeffs, 2)
    assert (a * b).coeffs == expected == (0, 1, 0, 0, 0, 0, 0, 1)


def test_mul_unit_and_annihilator():
    F = PrimeField(97)
    a = Poly(F, [5, 0, 3])
    assert a * F.one() == a
    assert (a * F.zero()).is_zero()


@pytest.mark.parametrize("p", [2, 97, 2**31 - 1])
def test_mul_matches_schoolbook_large(p):
    rng = random.Random(p + 1)
    F = PrimeField(p)
    for deg in [50, 333, 2000]:
        a = [rng.randrange(p) for _ in range(deg)] + [1]
        b = [rng.randrange(p) for _ in range(deg // 2)] + [1]
        got = (Poly(F, a) * Poly(F, b)).coeffs
        assert got == schoolbook(tuple(a), tuple(b), p)


# (p, slot): one byte, the 8-byte boundary of the word path, and wider slots
PACK_CASES = [(2, 1), (97, 1), (2**28 - 57, 8), (2**31 - 1, 8),
              (2**61 - 1, 8), (2**61 - 1, 9), (2**61 - 1, 17),
              (2**64 - 59, 8), (2**64 - 59, 17)]


@pytest.mark.parametrize("p, slot", PACK_CASES)
def test_pack_many_round_trip(p, slot):
    rng = random.Random(p + slot)
    n = 40
    tuples = []
    for k in range(60):
        length = 0 if k % 5 == 0 else rng.randint(1, n)
        cs = [rng.choice((0, 1, p - 1, rng.randrange(p)))
              for _ in range(length)]
        tuples.append(_strip(tuple(cs)))
    values = _pack_many(tuples, slot)
    assert [v == 0 for v in values] == [not t for t in tuples]
    assert _unpack_many(values, slot, n, p) == tuples
    assert _unpack_many([], slot, n, p) == []


@pytest.mark.parametrize("p", [2, 2**28 - 57, 2**61 - 1, 2**64 - 59])
def test_mul_matches_schoolbook_at_every_slot_size(p):
    # Kronecker products at min length 25..200 use slot 1 at p = 2, slot 8
    # at p = 2^28 - 57 and slots above 8 at the two large primes
    assert is_prime(p)
    rng = random.Random(p % 10007)
    F = PrimeField(p)
    for la, lb in [(25, 25), (30, 200), (200, 120)]:
        a = [rng.choice((0, p - 1, rng.randrange(p))) for _ in range(la - 1)]
        b = [rng.choice((0, p - 1, rng.randrange(p))) for _ in range(lb - 1)]
        a.append(rng.randrange(1, p))
        b.append(p - 1)
        got = (Poly(F, a) * Poly(F, b)).coeffs
        assert got == schoolbook(tuple(a), tuple(b), p)


def test_divrem_known_remainders():
    F = PrimeField(2)
    x5 = Poly(F, [0] * 5 + [1])
    lam1 = Poly(F, [1, 0, 0, 0, 1])   # x^4 + 1
    lam2 = Poly(F, [0, 1, 0, 1])      # x^3 + x
    s1 = Poly(F, [1, 0, 1, 0, 1])     # x^4 + x^2 + 1
    assert ((lam1 * s1) % x5).to_list() == [1, 0, 1]       # x^2 + 1
    assert ((lam2 * s1) % x5).to_list() == [0, 1]          # x
    assert (lam1 % F.one()).is_zero()


@pytest.mark.parametrize("p", FIELDS)
def test_divrem_reconstruction(p):
    rng = random.Random(p + 2)
    F = PrimeField(p)
    for _ in range(200):
        a = Poly(F, [rng.randrange(p) for _ in range(rng.randint(0, 30))])
        b = Poly(F, [rng.randrange(p) for _ in range(rng.randint(0, 12))]
                 + [rng.randrange(1, p)])
        q, r = poly_divrem(a, b)
        assert q * b + r == a
        assert r.degree < b.degree


def test_divrem_large_degrees_use_newton_path():
    rng = random.Random(5)
    F = PrimeField(97)
    a = Poly(F, [rng.randrange(97) for _ in range(900)] + [1])
    b = Poly(F, [rng.randrange(97) for _ in range(400)] + [1])
    q, r = poly_divrem(a, b)
    assert q * b + r == a and r.degree < b.degree


def test_divide_by_zero():
    F = PrimeField(3)
    with pytest.raises(ZeroDivisionError):
        poly_divrem(F.one(), F.zero())


def test_mismatched_fields_rejected():
    a = Poly(PrimeField(2), [1, 1])
    b = Poly(PrimeField(3), [1, 1])
    with pytest.raises(ValueError):
        poly_mul(a, b)


def test_substitute_shift_binomial():
    F = PrimeField(3)
    sq = Poly(F, [0, 0, 1])
    assert poly_substitute_shift(sq, 1).to_list() == [1, 2, 1]


def test_substitute_shift_identity_and_involution():
    F = PrimeField(2)
    a = Poly(F, [0, 0, 0, 0, 0, 1])  # x^5
    assert poly_substitute_shift(a, 0) == a
    once = poly_substitute_shift(a, 1)
    assert poly_substitute_shift(once, 1) == a  # char 2: -1 == 1


@pytest.mark.parametrize("p", FIELDS + [2**61 - 1])   # both branches
def test_substitute_shift_round_trip(p):
    rng = random.Random(p + 3)
    F = PrimeField(p)
    for _ in range(25):
        a = Poly(F, [rng.randrange(p) for _ in range(rng.randint(0, 40))])
        alpha = rng.randrange(p)
        assert poly_substitute_shift(poly_substitute_shift(a, alpha),
                                     -alpha) == a


def test_degree_conventions():
    F = PrimeField(5)
    assert F.zero().degree == NEG_INF
    assert F.one().degree == 0
    a = Poly(F, [1, 2])
    b = Poly(F, [0, 0, 3])
    assert (a * b).degree == a.degree + b.degree
    # canonical form: trailing zeros stripped
    assert Poly(F, [1, 0, 0]).coeffs == (1,)
