"""First adjoint row of a polynomial matrix whose determinant is a power of x.

The solve expands around x = 1: det F = x^D gives det F(1) = 1, so F is
invertible at that point over every prime field, including GF(2).  The
known degree bound D on adjoint entries fixes the precision D + 1.  A
Newton iteration inverts the shifted (n x n) matrix only modulo x^b, with
b = ceil((D + 1) / n); block x-adic lifting then solves for the one target
row b coefficients at a time, and substituting back yields the exact
polynomial row.  No full-precision inverse is formed, so the n^omega * D
cost of one becomes about n^(omega - 1) * D (Storjohann, "High-order
lifting and integrality certification", JSC 2003).
"""

from __future__ import annotations

from dataclasses import dataclass

from .ffpoly import Poly, _strip, poly_substitute_shift
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

    Substitutes x -> x + 1, inverts the shifted matrix Fh only modulo
    x^block with block = ceil(precision / n), and lifts the one vector
    block coefficients at a time, so no full-precision inverse is formed;
    then substitutes back.  Raises if F is singular at the expansion point or if the
    residual is nonzero.
    """
    if F.nrows != F.ncols:
        raise ValueError("lifted solve requires a square matrix")
    if len(v) != F.nrows:
        raise ValueError("vector length does not match matrix dimension")
    if precision < 1:
        raise ValueError("precision must be positive")
    field = F.field
    n = F.nrows
    Fh = PolyMatrix(field, [[poly_substitute_shift(e, 1).truncated(precision)
                             for e in row] for row in F.rows])
    # invert Fh(0) by eliminating [Fh(0) | I]
    augmented = [row + [int(i == j) for j in range(n)]
                 for i, row in enumerate(_const_matrix(Fh, 0))]
    reduced, _, det = gauss_jordan(augmented, field.p)
    if not det:
        raise ValueError("matrix is singular at the expansion point")
    X = PolyMatrix(field, [[Poly(field, (c,)) for c in row[n:]]
                           for row in reduced])
    block = -(-precision // n)
    ident = PolyMatrix.identity(field, n)
    two_i = PolyMatrix(field, [[e + e for e in row] for row in ident.rows])
    prec = 1
    while prec < block:
        prec = min(2 * prec, block)
        FX = mat_mul_trunc(Fh.truncated(prec), X, prec)
        corr = PolyMatrix(field, [[two_i.entry(i, j) - FX.entry(i, j)
                                   for j in range(n)]
                                  for i in range(n)])
        X = mat_mul_trunc(X, corr, prec)
    # X = Fh^-1 mod x^block.  Each step solves for the next block of wh
    # and keeps v(x + 1) = wh * Fh + x^offset * r modulo x^precision
    wh = [[] for _ in range(n)]
    r = tuple(poly_substitute_shift(e, 1).truncated(precision) for e in v)
    offset = 0
    while offset < precision:
        k = min(block, precision - offset)
        c = vec_mat_mul(tuple(e.truncated(k) for e in r), X)
        c = tuple(e.truncated(k) for e in c)
        for acc, e in zip(wh, c):
            acc.extend(e.coeffs)
            acc.extend([0] * (k - len(e.coeffs)))
        cF = vec_mat_mul(c, Fh)
        r = tuple(Poly._raw(field, _strip((e - f).coeffs[k:precision - offset]))
                  for e, f in zip(r, cF))
        offset += k
    w = tuple(poly_substitute_shift(Poly(field, e), -1) for e in wh)
    if vec_mat_mul(w, F) != tuple(v):
        raise ValueError("no polynomial solution at the requested precision")
    return w


def adjoint_first_row(F):
    """First row of adj(F) for F with monomial determinant x^D.

    Exact for n <= 6, where det F = x^D is checked exactly.  For larger n
    only det F(1) = 1 is checked, so the row is exact only when det F is
    known to be a power of x, as for canonical approximant bases; on other
    inputs a wrong row can be returned without an error.
    """
    exponent = det_power_of_x(F)
    field = F.field
    target = [field.zero()] * F.nrows
    target[0] = Poly(field, (0,) * exponent + (1,))
    row = lifted_vector_solve(tuple(target), F, exponent + 1)
    return AdjRowResult(row, exponent)
