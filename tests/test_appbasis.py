import random

import pytest

from simpade import (NEG_INF, Poly, PolyMatrix, PrimeField, appbasis,
                     is_popov, is_row_reduced, m_basis, mat_mul, neg_min_basis,
                     pm_basis, popov_basis, popov_canonical,
                     shifted_row_degrees)
from simpade.oracle import _rank

from conftest import (EX1_DUAL_G, EX1_N, EX1_S, GF2, SPLIT_G, SPLIT_SHIFT,
                      random_matrix)


def _ex1_dual_input():
    return PolyMatrix.from_coeff_lists(GF2, [[c] for c in [[1]] + EX1_S])


def _annihilates(F, A, d):
    prod = mat_mul(F, A)
    return all(e.truncated(d).is_zero() for row in prod.rows for e in row)


def _span_equal(polys_a, polys_b, p, width):
    def vecs(polys):
        out = []
        for e in polys:
            v = [0] * width
            for i, c in enumerate(e.coeffs):
                v[i] = c
            out.append(v)
        return out
    va, vb = vecs(polys_a), vecs(polys_b)
    return (_rank(va, width, p) == _rank(vb, width, p)
            == _rank(va + vb, width, p))


def test_order_zero_is_identity():
    A = _ex1_dual_input()
    res = m_basis(0, A, EX1_N)
    assert res.basis == PolyMatrix.identity(GF2, 4)
    assert res.degrees == EX1_N
    with pytest.raises(ValueError):
        m_basis(-1, A, EX1_N)
    with pytest.raises(ValueError):
        m_basis(1, A, (0, 0))


def test_zero_input_keeps_identity():
    A = PolyMatrix(GF2, [[0], [0]])
    res = m_basis(6, A, (2, -1))
    assert res.basis == PolyMatrix.identity(GF2, 2)
    assert res.degrees == (2, -1)


def test_m_basis_invariants_on_running_example():
    A = _ex1_dual_input()
    res = m_basis(5, A, EX1_N)
    assert _annihilates(res.basis, A, 5)
    assert is_row_reduced(res.basis, EX1_N)
    assert shifted_row_degrees(res.basis, EX1_N) == res.degrees
    assert sorted(res.degrees) == sorted((6, 5, 6, 5))


def test_popov_basis_matches_printed_canonical_form():
    A = _ex1_dual_input()
    res = popov_basis(5, A, EX1_N)
    assert res.basis.to_coeff_lists() == EX1_DUAL_G
    assert res.degrees == (6, 5, 6, 5)
    assert is_popov(res.basis, EX1_N)


def test_pm_basis_agrees_with_m_basis():
    rng = random.Random(23)
    for p in (2, 97):
        F = PrimeField(p)
        for _ in range(12):
            n = rng.randint(1, 4)
            m = rng.randint(1, n)
            d = rng.randint(1, 40)
            A = random_matrix(rng, F, n, m, d)
            s = tuple(rng.randint(-6, 6) for _ in range(n))
            # force the recursive path with a tiny threshold
            fast = pm_basis(d, A, s, threshold=2)
            slow = m_basis(d, A, s)
            assert sorted(fast.degrees) == sorted(slow.degrees)
            assert popov_canonical(fast.basis, s) \
                == popov_canonical(slow.basis, s)
            assert _annihilates(fast.basis, A, d)
            assert is_row_reduced(fast.basis, s)


def _reference_m_basis(d, A, s, p):
    """Textbook order-1 steps on plain lists, independent of m_basis.

    Each step recomputes coefficient k of F*A from F and A, visits the rows
    in (shifted degree, index) order, eliminates each row against the
    earlier pivots and multiplies the pivot rows by x.
    """
    n, m = len(A), len(A[0])

    def coeff(e, k):
        return e[k] if 0 <= k < len(e) else 0

    F = [[[int(i == j)] + [0] * d for j in range(n)] for i in range(n)]
    t = list(s)
    for k in range(d):
        delta = [[sum(F[i][q][a] * coeff(A[q][j], k - a)
                      for q in range(n) for a in range(k + 1)) % p
                  for j in range(m)] for i in range(n)]
        pivots = []
        for i in sorted(range(n), key=lambda i: (t[i], i)):
            for j, c in pivots:
                if delta[i][c]:
                    f = delta[i][c] * pow(delta[j][c], p - 2, p) % p
                    delta[i] = [(u - f * v) % p
                                for u, v in zip(delta[i], delta[j])]
                    F[i] = [[(u - f * v) % p for u, v in zip(a, b)]
                            for a, b in zip(F[i], F[j])]
            nz = [c for c, v in enumerate(delta[i]) if v]
            if nz:
                pivots.append((i, nz[0]))
        for i, _ in pivots:
            F[i] = [[0] + e[:-1] for e in F[i]]
            t[i] += 1

    def strip(e):
        while e and not e[-1]:
            e = e[:-1]
        return e

    return [[strip(e) for e in row] for row in F], tuple(t)


@pytest.mark.parametrize("p", [2, 3, 97, 2**31 - 1, 2**61 - 1])
def test_m_basis_and_pm_basis_match_the_textbook_steps(p):
    rng = random.Random(p % 10007)
    field = PrimeField(p)
    for trial in range(12):
        n = rng.randint(1, 6)
        m = rng.randint(1, 4)  # both n > m and n < m occur
        d = 0 if trial == 0 else rng.randint(1, 14)
        rows = []
        for _ in range(n):
            if rows and rng.random() < 0.2:
                rows.append(list(rows[rng.randrange(len(rows))]))
            elif rng.random() < 0.15:
                rows.append([[] for _ in range(m)])
            else:
                rows.append([[rng.randrange(p) if rng.random() < 0.7 else 0
                              for _ in range(rng.randint(0, d + 2))]
                             for _ in range(m)])
        if trial % 3 == 0:
            s = (rng.randint(-4, 0),) * n  # all tied
        else:
            s = tuple(rng.randint(-5, 3) for _ in range(n))
        A = PolyMatrix(field, [[Poly(field, e) for e in row] for row in rows])
        basis, degrees = _reference_m_basis(d, rows, s, p)
        for res in (m_basis(d, A, s), pm_basis(d, A, s, threshold=2)):
            assert res.basis.to_coeff_lists() == basis
            assert res.degrees == degrees


def test_pm_basis_reaches_the_leaf_through_the_module_name(monkeypatch):
    # span tracing rebinds appbasis.m_basis and counts the leaf's calls
    calls = []
    leaf = appbasis.m_basis

    def counting(d, A, s):
        calls.append(d)
        return leaf(d, A, s)

    monkeypatch.setattr(appbasis, "m_basis", counting)
    field = PrimeField(97)
    A = random_matrix(random.Random(31), field, 3, 2, 100)
    res = pm_basis(100, A, (0, 0, 0))
    assert calls == [25, 25, 25, 25]
    assert res.order == 100


def test_neg_min_basis_direct_stack_spans_known_denominators():
    # stacked input [-S; I; diag(x^5)] of the running example, order 9
    zero, one = GF2.zero(), GF2.one()
    x5 = Poly(GF2, [0] * 5 + [1])
    S = [Poly(GF2, c) for c in EX1_S]
    rows = [[-s for s in S]]
    for i in range(3):
        rows.append([one if j == i else zero for j in range(3)])
    for i in range(3):
        rows.append([x5 if j == i else zero for j in range(3)])
    H = PolyMatrix(GF2, rows)
    shift = tuple(-b for b in EX1_N) + (-4, -4, -4)
    part = neg_min_basis(9, H, shift)
    assert part.degrees == (-1, -1)
    assert part.width == 7  # rows live in the stacked basis space
    lambdas = [row[0] for row in part.rows]
    known = [Poly(GF2, [1, 0, 0, 0, 1]), Poly(GF2, [0, 1, 0, 1])]
    assert _span_equal(lambdas, known, 2, 5)
    part.as_matrix(GF2)  # nonempty, so this must not raise


def test_neg_min_basis_intersection_step_golden(split_g):
    # the 5x5 intersection matrix is already canonical for its shift
    assert shifted_row_degrees(split_g, SPLIT_SHIFT) == (3, 3, 0, -1, -1)
    assert popov_canonical(split_g, SPLIT_SHIFT) == split_g
    neg_rows = [row for row, d in
                zip(SPLIT_G, shifted_row_degrees(split_g, SPLIT_SHIFT))
                if d < 0]
    assert [r[0] for r in neg_rows] == [[1, 1, 0, 1, 1], [1, 0, 0, 0, 1]]


@pytest.mark.parametrize("p", [2**31 - 1, 2**61 - 1])
def test_neg_min_basis_is_the_negative_part_of_popov_basis(p):
    rng = random.Random(p % 1009)
    F = PrimeField(p)
    rows_seen = 0
    for trial in range(40):
        n = rng.randint(2, 5)
        m = rng.randint(1, n - 1)
        d = rng.randint(1, 64)
        A = random_matrix(rng, F, n, m, d)
        if trial % 2:
            s = tuple(rng.randint(-10, 10) for _ in range(n))
        else:
            # the intersection step's shape: -N_0 first, then small degrees
            s = (rng.randint(-d - 20, -20),) + tuple(rng.randint(-6, -1)
                                                     for _ in range(n - 1))
        full = popov_basis(d, A, s)
        neg = [(row, t) for row, t in zip(full.basis.rows, full.degrees)
               if t < 0]
        part = neg_min_basis(d, A, s)
        assert part.rows == tuple(row for row, _ in neg)
        assert part.degrees == tuple(t for _, t in neg)
        assert part.width == n
        rows_seen += len(neg)
    assert rows_seen >= 30


@pytest.mark.parametrize("p", [2, 97, 65537])
def test_neg_min_basis_past_the_split_is_the_negative_part_of_popov_basis(p):
    # d > PM_BASIS_THRESHOLD, so neg_min_basis multiplies only the rows of
    # the top split that have negative shifted degree
    rng = random.Random(p + 33)
    F = PrimeField(p)
    n, m = 4, 2
    draws = [(random_matrix(rng, F, n, m, 60), 60, (0,) * n),
             (random_matrix(rng, F, n, m, 70), 70, (-m * 70 - 1,) * n)]
    for _ in range(10):
        n = rng.randint(2, 5)
        m = rng.randint(1, n - 1)
        d = rng.randint(33, 140)
        # near the average degree rise m d / n: some rows negative, some not
        s = tuple(rng.randint(-m * d // n - 3, -m * d // n + 3)
                  for _ in range(n))
        draws.append((random_matrix(rng, F, n, m, d), d, s))
    kept = []
    for A, d, s in draws:
        full = popov_basis(d, A, s)
        neg = [(row, t) for row, t in zip(full.basis.rows, full.degrees)
               if t < 0]
        part = neg_min_basis(d, A, s)
        assert part.rows == tuple(row for row, _ in neg)
        assert part.degrees == tuple(t for _, t in neg)
        assert part.width == A.nrows
        kept.append(len(part.rows))
    # shift 0 keeps no row; shift -(m d + 1) keeps every row, since the
    # shifted degrees rise by at most m d in total
    assert kept[:2] == [0, 4]
    assert any(0 < k < len(A.rows)
               for k, (A, _, _) in zip(kept[2:], draws[2:]))


def test_neg_min_basis_empty():
    part = neg_min_basis(1, PolyMatrix.identity(GF2, 2), (0, 0))
    assert part.rows == () and part.degrees == ()
    with pytest.raises(ValueError):
        part.as_matrix(GF2)


def test_degrees_never_decrease_and_sum_bounded():
    rng = random.Random(29)
    F = PrimeField(97)
    for _ in range(15):
        n = rng.randint(1, 5)
        m = rng.randint(1, n)
        d = rng.randint(0, 20)
        A = random_matrix(rng, F, n, m, d)
        s = tuple(rng.randint(-4, 4) for _ in range(n))
        res = m_basis(d, A, s)
        assert all(t >= si for t, si in zip(res.degrees, s))
        assert sum(res.degrees) - sum(s) <= m * d
