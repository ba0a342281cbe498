import random

import pytest

from simpade import (NEG_INF, Poly, PolyMatrix, PrimeField, cofactor_adjoint,
                     determinant, is_popov, is_row_reduced, mat_mul,
                     popov_canonical, row_space_membership,
                     shifted_leading_matrix, shifted_row_degrees)
from simpade.polymat import mat_mul_trunc, row_pivot, vec_mat_mul

from conftest import (EX1_N, GF2, random_matrix, random_poly,
                      random_unimodular)


def _pm(field, nested):
    return PolyMatrix.from_coeff_lists(field, nested)


def test_constructor_coercion_and_shape():
    A = PolyMatrix(GF2, [[1, [0, 1]], [[1, 1], 0]])
    assert A.nrows == 2 and A.ncols == 2
    assert A.entry(0, 1) == GF2.x()
    with pytest.raises(ValueError):
        PolyMatrix(GF2, [[1], [1, 0]])
    with pytest.raises(ValueError):
        PolyMatrix(GF2, [])


def test_transpose_and_identity():
    A = _pm(GF2, [[[1], [0, 1]], [[], [1, 1]]])
    assert A.transpose().transpose() == A
    ident = PolyMatrix.identity(GF2, 2)
    assert mat_mul(ident, A) == A and mat_mul(A, ident) == A


def test_shifted_row_degrees_golden(ex1_dual_g):
    assert shifted_row_degrees(ex1_dual_g, EX1_N) == (6, 5, 6, 5)
    zero_row = PolyMatrix(GF2, [[0, 0]])
    assert shifted_row_degrees(zero_row, (3, -1)) == (NEG_INF,)


def test_rightmost_pivot_convention():
    F = PrimeField(5)
    row = (F.x(), F.one(), F.x())  # degree 1 attained in columns 0 and 2
    assert row_pivot(row, (0, 0, 0)) == 2
    assert row_pivot(row, (0, 2, 0)) == 1


def test_leading_matrix_golden(ex1_dual_g):
    lead = shifted_leading_matrix(ex1_dual_g, EX1_N)
    assert lead == [[1, 0, 0, 0], [1, 1, 0, 0], [0, 0, 1, 0], [0, 0, 1, 1]]
    with pytest.raises(ValueError):
        shifted_leading_matrix(PolyMatrix(GF2, [[0, 0]]), (0, 0))


def test_row_reduced_examples():
    F = PrimeField(7)
    x = F.x()
    not_reduced = PolyMatrix(F, [[x, F.zero()], [x * x, x]])
    assert not is_row_reduced(not_reduced, (0, 0))
    reduced = PolyMatrix(F, [[x, F.one()], [F.one(), x]])
    assert is_row_reduced(reduced, (0, 0))
    assert is_popov(reduced, (0, 0))


def test_popov_predicate_golden(ex1_dual_g, split_g):
    from conftest import SPLIT_SHIFT
    assert is_popov(ex1_dual_g, EX1_N)
    assert is_popov(split_g, SPLIT_SHIFT)
    assert not is_popov(_pm(GF2, [[[0, 1], [1]], [[], [1]]]), (0, 0))
    with pytest.raises(ValueError):
        is_popov(PolyMatrix(GF2, [[1, 0]]), (0, 0))


def test_mat_mul_matches_naive_reference():
    rng = random.Random(11)
    F = PrimeField(97)
    for max_len in (3, 40):  # short and long entries
        A = random_matrix(rng, F, 3, 4, max_len)
        B = random_matrix(rng, F, 4, 2, max_len)
        got = mat_mul(A, B)
        for i in range(3):
            for j in range(2):
                acc = F.zero()
                for k in range(4):
                    acc = acc + A.entry(i, k) * B.entry(k, j)
                assert got.entry(i, j) == acc


def _schoolbook_entry(A, B, i, j):
    """Sum over k of A[i][k] * B[k][j] by plain coefficient convolution."""
    p = A.field.p
    out = {}
    for k in range(A.ncols):
        for u, a in enumerate(A.entry(i, k).coeffs):
            for v, b in enumerate(B.entry(k, j).coeffs):
                out[u + v] = (out.get(u + v, 0) + a * b) % p
    top = max(out, default=-1)
    return Poly(A.field, [out.get(t, 0) for t in range(top + 1)])


def _matrix_with_lengths(rng, field, n, m, lengths):
    return PolyMatrix(field, [[Poly(field, [rng.randrange(field.p) for _ in
                                            range(rng.choice(lengths))])
                               for _ in range(m)] for _ in range(n)])


def _zero(field, n, m):
    return PolyMatrix(field, [[0] * m for _ in range(n)])


@pytest.mark.parametrize("p", [2, 97, 2**31 - 1, 2**61 - 1, 2**64 - 59])
def test_mat_mul_matches_naive_reference_at_every_size_and_p(p):
    rng = random.Random(p % 1009)
    F = PrimeField(p)
    lengths = (0, 1, 2, 25, 60, 130)
    for _ in range(6):
        n, m, r = (rng.randint(1, 4) for _ in range(3))
        A = _matrix_with_lengths(rng, F, n, m, lengths)
        # half the time B has only short entries, which meet A's long ones
        B = _matrix_with_lengths(rng, F, m, r,
                                 rng.choice([lengths, (0, 1, 2)]))
        got = mat_mul(A, B)
        assert (got.nrows, got.ncols) == (n, r)
        for i in range(n):
            for j in range(r):
                assert got.entry(i, j) == _schoolbook_entry(A, B, i, j)
        assert mat_mul_trunc(A, B, 30) == got.truncated(30)
        assert vec_mat_mul(A.row(0), B) == got.row(0)
        assert mat_mul(A, _zero(F, m, r)) == _zero(F, n, r)
        assert mat_mul(_zero(F, r, n), A) == _zero(F, r, m)
    # every coefficient p - 1 makes each inner-product coefficient reach the
    # largest value a slot must hold
    full = PolyMatrix(F, [[[p - 1] * 40] * 4] * 4)
    got = mat_mul(full, full)
    assert got.entry(3, 0) == _schoolbook_entry(full, full, 3, 0)


def test_mat_mul_shape_errors():
    A = PolyMatrix.identity(GF2, 2)
    B = PolyMatrix.identity(GF2, 3)
    with pytest.raises(ValueError):
        mat_mul(A, B)
    with pytest.raises(TypeError):
        mat_mul(A, [[1]])


def test_order_annihilation_golden(ex1_dual_g):
    # the canonical basis annihilates (1, S1, S2, S3)^T to order 5
    from conftest import EX1_S
    col = [[1]] + EX1_S
    B = _pm(GF2, [[c] for c in col])
    prod = mat_mul(ex1_dual_g, B)
    assert all(e.truncated(5).is_zero() for row in prod.rows for e in row)
    assert mat_mul_trunc(ex1_dual_g, B, 5) == PolyMatrix(GF2, [[0]] * 4)


def test_vec_mat_mul_adjoint_row_identity(ex1_dual_g):
    w = tuple(Poly(GF2, c) for c in
              [[1, 0, 0, 0, 1], [0, 1], [0, 1, 0, 1], []])
    out = vec_mat_mul(w, ex1_dual_g)
    x5 = Poly(GF2, [0] * 5 + [1])
    assert out == (x5, GF2.zero(), GF2.zero(), GF2.zero())


def test_membership_golden(ex1_basis):
    shift = tuple(-b for b in EX1_N)
    # the GF(2) sum of the two basis rows is again a solution row
    combined = tuple(a + b for a, b in zip(ex1_basis.row(0), ex1_basis.row(1)))
    assert row_space_membership(combined, ex1_basis, shift)
    x_scaled = tuple(e.shifted(1) for e in ex1_basis.row(0))
    assert row_space_membership(x_scaled, ex1_basis, shift)
    constant = (GF2.one(), GF2.zero(), GF2.zero(), GF2.zero())
    assert not row_space_membership(constant, ex1_basis, shift)
    zero = (GF2.zero(),) * 4
    assert row_space_membership(zero, ex1_basis, shift)


def test_membership_requires_reduced_matrix():
    F = PrimeField(7)
    x = F.x()
    bad = PolyMatrix(F, [[x, F.zero()], [x * x, x]])
    with pytest.raises(ValueError):
        row_space_membership((F.one(), F.zero()), bad)


def test_popov_canonical_fixed_point(ex1_dual_g, split_g):
    from conftest import SPLIT_SHIFT
    assert popov_canonical(ex1_dual_g, EX1_N) == ex1_dual_g
    assert popov_canonical(split_g, SPLIT_SHIFT) == split_g


@pytest.mark.parametrize("p", [2, 97])
def test_popov_canonical_unimodular_invariance(p):
    rng = random.Random(p)
    F = PrimeField(p)
    for _ in range(20):
        n = rng.randint(1, 4)
        # start from a nonsingular matrix: unimodular times diag of monics
        diag = [[random_poly(rng, F, 3, monic=True) if i == j else F.zero()
                 for j in range(n)] for i in range(n)]
        A = mat_mul(random_unimodular(rng, F, n), PolyMatrix(F, diag))
        s = tuple(rng.randint(-5, 5) for _ in range(n))
        P = popov_canonical(A, s)
        assert is_popov(P, s)
        assert popov_canonical(P, s) == P
        B = mat_mul(random_unimodular(rng, F, n), A)
        assert popov_canonical(B, s) == P


def test_popov_canonical_rejects_singular():
    F = PrimeField(3)
    x = F.x()
    with pytest.raises(ValueError):
        popov_canonical(PolyMatrix(F, [[x, x], [x, x]]), (0, 0))


def _full_row_rank(rng, field, k, m):
    # monic diagonal beside random columns, times a unimodular on the right
    rows = [[random_poly(rng, field, 3, monic=True) if i == j
             else field.zero() for j in range(k)]
            + [random_poly(rng, field, 3) for _ in range(m - k)]
            for i in range(k)]
    return mat_mul(PolyMatrix(field, rows), random_unimodular(rng, field, m))


@pytest.mark.parametrize("p", [2, 97])
def test_popov_canonical_full_row_rank_k_by_m(p):
    rng = random.Random(100 + p)
    F = PrimeField(p)
    for _ in range(20):
        m = rng.randint(2, 5)
        k = rng.randint(1, m - 1)
        A = _full_row_rank(rng, F, k, m)
        s = tuple(rng.randint(-5, 5) for _ in range(m))
        P = popov_canonical(A, s)
        assert (P.nrows, P.ncols) == (k, m)
        cols = [row_pivot(row, s) for row in P.rows]
        assert cols == sorted(set(cols))
        for i, c in enumerate(cols):
            piv = P.entry(i, c)
            assert piv.leading_coefficient() == 1
            assert all(P.entry(j, c).degree < piv.degree
                       for j in range(k) if j != i)
        assert all(row_space_membership(row, P, s) for row in A.rows)
        assert popov_canonical(P, s) == P
        B = mat_mul(random_unimodular(rng, F, k), A)
        assert popov_canonical(B, s) == P


def test_popov_canonical_rejects_rank_deficient_and_tall_input():
    F = PrimeField(3)
    x, one, zero = F.x(), F.one(), F.zero()
    # the second row is x times the first
    with pytest.raises(ValueError):
        popov_canonical(PolyMatrix(F, [[x, one, x], [x * x, x, x * x]]),
                        (0, 0, 0))
    with pytest.raises(ValueError):
        popov_canonical(PolyMatrix(F, [[one, zero], [zero, one], [x, x]]),
                        (0, 0))


# GF(3), shift (5, 4, 2, -2, -1): reducing a row at one pivot column raises
# its entry at another, so the reductions cascade; a sweep over (row, pivot
# column) pairs in index order needs three passes to reach the Popov form
CASCADE = [
    [[0, 0, 2, 1], [], [1, 1], [1, 0, 2, 2, 1], [2, 1, 0, 1]],
    [[2, 1, 2, 1], [0, 1], [2, 2, 2], [1], [2]],
    [[2, 1], [2], [], [2], [0, 1, 2]],
    [[2, 0, 1, 2], [1, 1, 1], [1, 1, 2], [1, 0, 2], [1, 2, 1, 1]],
    [[1], [1, 1], [0, 1], [], []],
]
CASCADE_SHIFT = (5, 4, 2, -2, -1)


def test_popov_canonical_cascade():
    F = PrimeField(3)
    A = _pm(F, CASCADE)
    P = popov_canonical(A, CASCADE_SHIFT)
    assert is_popov(P, CASCADE_SHIFT)
    assert popov_canonical(P, CASCADE_SHIFT) == P
    rng = random.Random(5)
    for _ in range(5):
        B = mat_mul(random_unimodular(rng, F, 5), A)
        assert popov_canonical(B, CASCADE_SHIFT) == P


def test_popov_canonical_tied_degrees_different_pivots():
    F = PrimeField(97)
    x, one, zero = F.x(), F.one(), F.zero()
    # rows 0 and 1 both have shifted degree 2, with pivots in columns 1 and
    # 0; row 0 must lose x^2 in column 0, a constant multiple of row 1
    A = PolyMatrix(F, [[x * x + x, x * x, one], [x * x, one, zero],
                       [zero, zero, x]])
    s = (0, 0, 0)
    P = popov_canonical(A, s)
    assert P == PolyMatrix(F, [[x * x, one, zero], [x, x * x - 1, one],
                               [zero, zero, x]])
    assert is_popov(P, s)
    rng = random.Random(6)
    for _ in range(5):
        B = mat_mul(random_unimodular(rng, F, 3), A)
        assert popov_canonical(B, s) == P


@pytest.mark.parametrize("p", [3, 97, 2**61 - 1])
def test_membership_k_by_m(p):
    rng = random.Random(200 + p % 1009)
    F = PrimeField(p)
    for _ in range(10):
        m = rng.randint(2, 5)
        k = rng.randint(1, m - 1)
        s = tuple(rng.randint(-4, 4) for _ in range(m))
        P = popov_canonical(_full_row_rank(rng, F, k, m), s)
        member = [F.zero()] * m
        for row in P.rows:
            u = Poly(F, [rng.randrange(1, p)]).shifted(rng.randint(0, 3))
            member = [a + u * b for a, b in zip(member, row)]
        assert row_space_membership(member, P, s)
        # a nonzero vector that is zero in every pivot column is reduced,
        # so adding one to a member leaves the row space
        free = [c for c in range(m)
                if c not in {row_pivot(row, s) for row in P.rows}]
        c = rng.choice(free)
        member[c] = member[c] + 1
        assert not row_space_membership(member, P, s)


def test_predictable_degree_property(ex1_dual_g):
    # rowdeg_s(u A) = max(deg u_i + rowdeg_s A_i) for row-reduced A
    rng = random.Random(3)
    degs = shifted_row_degrees(ex1_dual_g, EX1_N)
    for _ in range(25):
        u = tuple(Poly(GF2, [rng.randrange(2) for _ in range(rng.randint(0, 6))])
                  for _ in range(4))
        if all(e.is_zero() for e in u):
            continue
        out = vec_mat_mul(u, ex1_dual_g)
        expected = max(e.degree + d for e, d in zip(u, degs)
                       if not e.is_zero())
        got = max((e.degree + s for e, s in zip(out, EX1_N)
                   if not e.is_zero()), default=NEG_INF)
        assert got == expected


def test_determinant_goldens(ex1_dual_g):
    assert determinant(ex1_dual_g) == Poly(GF2, [0] * 5 + [1])
    assert determinant(PolyMatrix.identity(GF2, 3)) == GF2.one()
    F = PrimeField(5)
    x = F.x()
    assert determinant(PolyMatrix(F, [[x, x], [x, x]])).is_zero()


@pytest.mark.parametrize("p", [2, 97])
def test_determinant_multiplicative(p):
    rng = random.Random(p + 7)
    F = PrimeField(p)
    for _ in range(15):
        n = rng.randint(1, 3)
        A = random_matrix(rng, F, n, n, 3)
        B = random_matrix(rng, F, n, n, 3)
        assert determinant(mat_mul(A, B)) == determinant(A) * determinant(B)


def test_cofactor_adjoint_identity():
    rng = random.Random(19)
    F = PrimeField(97)
    for _ in range(10):
        n = rng.randint(1, 4)
        A = random_matrix(rng, F, n, n, 3)
        adj = cofactor_adjoint(A)
        det = determinant(A)
        prod = mat_mul(adj, A)
        for i in range(n):
            for j in range(n):
                assert prod.entry(i, j) == (det if i == j else F.zero())
