import random

import pytest

from simpade import (Poly, PolyMatrix, PrimeField, adjoint_first_row,
                     cofactor_adjoint, det_power_of_x, lifted_vector_solve,
                     popov_basis)
from simpade.polymat import vec_mat_mul

from conftest import GF2, random_matrix

ADJ_ROW = [[1, 0, 0, 0, 1], [0, 1], [0, 1, 0, 1], []]


def test_det_exponent_goldens(ex1_dual_g):
    assert det_power_of_x(ex1_dual_g) == 5
    assert det_power_of_x(PolyMatrix.identity(GF2, 3)) == 0
    F = PrimeField(7)
    diag = PolyMatrix(F, [[[0, 0, 1], 0], [0, [0, 0, 0, 1]]])
    assert det_power_of_x(diag) == 5


def test_det_exponent_rejections():
    F = PrimeField(3)
    x = F.x()
    with pytest.raises(ValueError):
        det_power_of_x(PolyMatrix(F, [[x + 1]]))
    with pytest.raises(ValueError):
        det_power_of_x(PolyMatrix(F, [[x, x], [x, x]]))
    with pytest.raises(ValueError):
        det_power_of_x(PolyMatrix(F, [[x, x]]))


def test_exact_det_check_rejects_a_unit_det_at_one():
    # det = x^2 + x + 2 is 1 at x = 1 over GF(3), and the lifted solve's
    # residual check accepts the wrong row (x^2, 0); only the exact
    # determinant tells the two apart
    F = PrimeField(3)
    diag = PolyMatrix(F, [[1, 0], [0, [2, 1, 1]]])
    with pytest.raises(ValueError):
        adjoint_first_row(diag)


def test_lifted_solve_identity():
    ident = PolyMatrix.identity(GF2, 3)
    v = (GF2.one(), GF2.zero(), GF2.zero())
    assert lifted_vector_solve(v, ident, 1) == v
    v2 = (Poly(GF2, [1, 1, 1]), GF2.x(), GF2.zero())
    assert lifted_vector_solve(v2, ident, 3) == v2


def test_lifted_solve_golden_adjoint_row(ex1_dual_g):
    x5 = Poly(GF2, [0] * 5 + [1])
    target = (x5, GF2.zero(), GF2.zero(), GF2.zero())
    w = lifted_vector_solve(target, ex1_dual_g, 6)
    assert [e.to_list() for e in w] == ADJ_ROW
    assert vec_mat_mul(w, ex1_dual_g) == target


def test_lifted_solve_errors():
    F = PrimeField(5)
    x = F.x()
    singular = PolyMatrix(F, [[x, x], [x, x]])
    with pytest.raises(ValueError):
        lifted_vector_solve((F.one(), F.zero()), singular, 2)
    # no solution of the requested degree: w would need degree 3
    ident = PolyMatrix.identity(F, 1)
    cube = (Poly(F, [0, 0, 0, 1]),)
    with pytest.raises(ValueError):
        lifted_vector_solve(cube, ident, 2)
    with pytest.raises(ValueError):
        lifted_vector_solve((F.one(),), ident, 0)
    with pytest.raises(ValueError):
        lifted_vector_solve((F.one(), F.one()), ident, 1)


def test_adjoint_first_row_golden(ex1_dual_g):
    res = adjoint_first_row(ex1_dual_g)
    assert res.det_exponent == 5
    assert [e.to_list() for e in res.row] == ADJ_ROW


def test_adjoint_first_row_matches_cofactors(ex1_dual_g):
    adj = cofactor_adjoint(ex1_dual_g)
    res = adjoint_first_row(ex1_dual_g)
    assert res.row == adj.row(0)


@pytest.mark.parametrize("p", [2, 97])
def test_adjoint_random_popov_inputs(p):
    # canonical approximant bases always have a monomial determinant
    rng = random.Random(p + 41)
    F = PrimeField(p)
    x_pow = {}
    for _ in range(15):
        n = rng.randint(1, 4)
        m = rng.randint(1, n)
        d = rng.randint(1, 10)
        A = random_matrix(rng, F, n, m, d)
        s = tuple(rng.randint(-4, 4) for _ in range(n))
        G = popov_basis(d, A, s).basis
        res = adjoint_first_row(G)
        adj = cofactor_adjoint(G)
        assert res.row == adj.row(0)
        key = res.det_exponent
        if key not in x_pow:
            x_pow[key] = Poly(F, (0,) * key + (1,))
        e1 = [F.zero()] * n
        e1[0] = x_pow[key]
        assert vec_mat_mul(res.row, G) == tuple(e1)


@pytest.mark.parametrize("p", [2, 97, 2**31 - 1, 2**61 - 1])
def test_block_lift_on_random_popov_bases(p):
    # n runs past the exact determinant check; the lift inverts only modulo
    # x^b with b = ceil(precision / n), and the last block is short whenever
    # b does not divide the precision
    rng = random.Random(p + 7)
    F = PrimeField(p)
    short_last_block = 0
    for n in list(range(1, 13)) * 2:
        m = rng.randint(1, n)
        d = rng.randint(1, 12)
        A = random_matrix(rng, F, n, m, d)
        s = tuple(rng.randint(-3, 3) for _ in range(n))
        G = popov_basis(d, A, s).basis
        res = adjoint_first_row(G)
        D = res.det_exponent
        e1 = (Poly(F, (0,) * D + (1,)),) + (F.zero(),) * (n - 1)
        # w * G = x^D * e1 has exactly one solution, the first adjoint row
        assert vec_mat_mul(res.row, G) == e1
        assert all(e.degree <= D for e in res.row)
        if n <= 5:
            assert res.row == cofactor_adjoint(G).row(0)
        short_last_block += (D + 1) % -(-(D + 1) // n) != 0
        for precision in (1, rng.randint(2, D + 3)):
            w = tuple(Poly(F, [rng.randrange(p) for _ in range(precision)])
                      for _ in range(n))
            assert lifted_vector_solve(vec_mat_mul(w, G), G, precision) == w
    assert short_last_block
