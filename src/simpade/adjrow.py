"""First adjoint row of a polynomial matrix whose determinant is a power of x.

The solve expands around x = 1: det F = x^D gives det F(1) = 1, so F is
invertible at that point over every prime field, including GF(2).  A Newton
iteration inverts the shifted matrix as a truncated series, the known degree
bound D on adjoint entries fixes the precision, and substituting back yields
the exact polynomial row.
"""

from __future__ import annotations

from dataclasses import dataclass

from .ffpoly import Poly, poly_substitute_shift
from .polymat import (NEG_INF, PolyMatrix, determinant, gauss_jordan,
                      mat_mul_trunc, vec_mat_mul)

# det F(1) = 1 does not imply det F = x^D, and the residual check of the
# lifted solve does not catch it either: over GF(3), diag(1, x^2 + x + 2)
# passes both and yields the row (x^2, 0).  Small matrices therefore get
# an exact determinant.
_EXACT_DET_MAX_DIM = 6


@dataclass(frozen=True)
class AdjRowResult:
    """First row w of adj(F), with w * F = x^D * e1 and det F = x^D."""

    row: tuple
    det_exponent: int


def det_power_of_x(F):
    """Exponent D with det F = x^D.

    For a Popov-form F the exponent is the sum of the diagonal degrees; the
    claim is verified against an exact determinant on small matrices and by
    the necessary evaluation checks otherwise.
    """
    if F.nrows != F.ncols:
        raise ValueError("determinant exponent of a non-square matrix")
    n = F.nrows
    exponent = 0
    for i in range(n):
        d = F.entry(i, i).degree
        if d == NEG_INF:
            raise ValueError("determinant is not a power of x (zero diagonal)")
        exponent += int(d)
    if n <= _EXACT_DET_MAX_DIM:
        det = determinant(F)
        field = F.field
        expected = Poly(field, (0,) * exponent + (1,))
        if det != expected:
            raise ValueError("determinant is not a power of x")
    else:
        if gauss_jordan(_const_matrix(F, 1), F.field.p)[2] != 1:
            raise ValueError("determinant is not a power of x (det F(1) != 1)")
    return exponent


def _const_matrix(F, alpha):
    return [[e(alpha) for e in row] for row in F.rows]


def lifted_vector_solve(v, F, precision):
    """Exact polynomial w with w * F = v, assuming deg w < precision.

    Works by substituting x -> x + 1, Newton-inverting the shifted matrix as
    a power series in x, multiplying, and substituting back.  Raises if F is
    singular at the expansion point or if the residual is nonzero.
    """
    if F.nrows != F.ncols:
        raise ValueError("lifted solve requires a square matrix")
    if len(v) != F.nrows:
        raise ValueError("vector length does not match matrix dimension")
    if precision < 1:
        raise ValueError("precision must be positive")
    field = F.field
    n = F.nrows
    Fh = PolyMatrix(field, [[poly_substitute_shift(e, 1) for e in row]
                            for row in F.rows])
    vh = tuple(poly_substitute_shift(e, 1) for e in v)
    # invert Fh(0) by eliminating [Fh(0) | I]
    augmented = [row + [int(i == j) for j in range(n)]
                 for i, row in enumerate(_const_matrix(Fh, 0))]
    reduced, _, det = gauss_jordan(augmented, field.p)
    if not det:
        raise ValueError("matrix is singular at the expansion point")
    X = PolyMatrix(field, [[Poly(field, (c,)) for c in row[n:]]
                           for row in reduced])
    ident = PolyMatrix.identity(field, n)
    two_i = PolyMatrix(field, [[e + e for e in row] for row in ident.rows])
    prec = 1
    while prec < precision:
        prec = min(2 * prec, precision)
        FX = mat_mul_trunc(Fh.truncated(prec), X, prec)
        corr = PolyMatrix(field, [[two_i.entry(i, j) - FX.entry(i, j)
                                   for j in range(n)]
                                  for i in range(n)])
        X = mat_mul_trunc(X, corr, prec)
    wh = tuple(e.truncated(precision) for e in vec_mat_mul(vh, X))
    w = tuple(poly_substitute_shift(e, -1) for e in wh)
    if vec_mat_mul(w, F) != tuple(v):
        raise ValueError("no polynomial solution at the requested precision")
    return w


def adjoint_first_row(F):
    """First row of adj(F) for F with monomial determinant x^D."""
    exponent = det_power_of_x(F)
    field = F.field
    target = [field.zero()] * F.nrows
    target[0] = Poly(field, (0,) * exponent + (1,))
    row = lifted_vector_solve(tuple(target), F, exponent + 1)
    return AdjRowResult(row, exponent)
